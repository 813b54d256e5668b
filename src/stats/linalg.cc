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

namespace
{

/**
 * In-place lower Cholesky factor of `a` (row-major n*n, upper part
 * zero); adds log(det(a)) to `log_det`. fatal() if `a` is not positive
 * definite.
 */
std::vector<double>
choleskyFactor(const SymmetricMatrix &a, double &log_det)
{
    const std::size_t n = a.size();
    GCM_ASSERT(n > 0, "choleskyLogDet: empty matrix");
    std::vector<double> l(n * n, 0.0);
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
    return l;
}

} // namespace

double
choleskyLogDet(const SymmetricMatrix &a)
{
    double log_det = 0.0;
    choleskyFactor(a, log_det);
    return log_det;
}

CholeskyInverse
choleskyInverse(const SymmetricMatrix &a)
{
    const std::size_t n = a.size();
    CholeskyInverse out{SymmetricMatrix(n), 0.0};
    const std::vector<double> l = choleskyFactor(a, out.log_det);
    // W = L^-1 (lower triangular) by forward substitution, column by
    // column; then A^-1 = W^T W.
    std::vector<double> w(n * n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        w[j * n + j] = 1.0 / l[j * n + j];
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = 0.0;
            for (std::size_t k = j; k < i; ++k)
                s -= l[i * n + k] * w[k * n + j];
            w[i * n + j] = s / l[i * n + i];
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
            double s = 0.0;
            for (std::size_t k = j; k < n; ++k)
                s += w[k * n + i] * w[k * n + j];
            out.inverse.at(i, j) = s;
            out.inverse.at(j, i) = s;
        }
    }
    return out;
}

} // namespace gcm::stats
