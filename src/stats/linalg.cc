#include "stats/linalg.hh"

#include <cmath>

#include "util/error.hh"

namespace gcm::stats
{

SymmetricMatrix
SymmetricMatrix::submatrix(const std::vector<std::size_t> &idx) const
{
    SymmetricMatrix sub(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
        GCM_ASSERT(idx[i] < n_, "submatrix index out of range");
        for (std::size_t j = 0; j < idx.size(); ++j)
            sub.at(i, j) = at(idx[i], idx[j]);
    }
    return sub;
}

SymmetricMatrix
covarianceMatrix(const std::vector<std::vector<double>> &variables,
                 double ridge)
{
    const std::size_t p = variables.size();
    GCM_ASSERT(p > 0, "covarianceMatrix: no variables");
    const std::size_t n = variables[0].size();
    GCM_ASSERT(n >= 2, "covarianceMatrix: need >= 2 samples");

    std::vector<double> means(p, 0.0);
    for (std::size_t v = 0; v < p; ++v) {
        GCM_ASSERT(variables[v].size() == n,
                   "covarianceMatrix: unequal sample sizes");
        for (double x : variables[v])
            means[v] += x;
        means[v] /= static_cast<double>(n);
    }

    SymmetricMatrix cov(p);
    for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = i; j < p; ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < n; ++k) {
                s += (variables[i][k] - means[i])
                    * (variables[j][k] - means[j]);
            }
            s /= static_cast<double>(n - 1);
            cov.at(i, j) = s;
            cov.at(j, i) = s;
        }
        cov.at(i, i) += ridge;
    }
    return cov;
}

// Cache-line aligned: when link order split its latency-bound inner
// loop across two lines, MIS selection ran ~25% slower (4-vCPU Xeon).
[[gnu::aligned(64)]] double
choleskyLogDet(const SymmetricMatrix &a)
{
    const std::size_t n = a.size();
    GCM_ASSERT(n > 0, "choleskyLogDet: empty matrix");
    // In-place lower Cholesky on a working copy.
    std::vector<double> l(n * n, 0.0);
    double log_det = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        double d = a.at(j, j);
        for (std::size_t k = 0; k < j; ++k)
            d -= l[j * n + k] * l[j * n + k];
        if (d <= 0.0) {
            fatal("choleskyLogDet: matrix not positive definite "
                  "(pivot ", d, " at index ", j, ")");
        }
        const double ljj = std::sqrt(d);
        l[j * n + j] = ljj;
        log_det += 2.0 * std::log(ljj);
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = a.at(i, j);
            for (std::size_t k = 0; k < j; ++k)
                s -= l[i * n + k] * l[j * n + k];
            l[i * n + j] = s / ljj;
        }
    }
    return log_det;
}

} // namespace gcm::stats
