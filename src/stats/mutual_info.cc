#include "stats/mutual_info.hh"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hh"
#include "util/error.hh"

namespace gcm::stats
{

std::vector<std::size_t>
quantileBins(const std::vector<double> &v, std::size_t num_bins)
{
    GCM_ASSERT(num_bins >= 2, "quantileBins: need >= 2 bins");
    GCM_ASSERT(!v.empty(), "quantileBins: empty input");
    // Compute bin edges at the interior quantiles.
    std::vector<double> edges;
    edges.reserve(num_bins - 1);
    for (std::size_t b = 1; b < num_bins; ++b) {
        edges.push_back(
            quantile(v, static_cast<double>(b) / num_bins));
    }
    std::vector<std::size_t> bins(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        const auto it =
            std::upper_bound(edges.begin(), edges.end(), v[i]);
        bins[i] = static_cast<std::size_t>(it - edges.begin());
    }
    return bins;
}

double
discreteMutualInformation(const std::vector<std::size_t> &xb,
                          const std::vector<std::size_t> &yb,
                          std::size_t x_bins, std::size_t y_bins)
{
    GCM_ASSERT(xb.size() == yb.size(),
               "discreteMutualInformation: size mismatch");
    GCM_ASSERT(!xb.empty(), "discreteMutualInformation: empty input");
    const double n = static_cast<double>(xb.size());
    std::vector<double> joint(x_bins * y_bins, 0.0);
    std::vector<double> px(x_bins, 0.0), py(y_bins, 0.0);
    for (std::size_t i = 0; i < xb.size(); ++i) {
        GCM_ASSERT(xb[i] < x_bins && yb[i] < y_bins,
                   "discreteMutualInformation: bin out of range");
        joint[xb[i] * y_bins + yb[i]] += 1.0;
        px[xb[i]] += 1.0;
        py[yb[i]] += 1.0;
    }
    double mi = 0.0;
    for (std::size_t a = 0; a < x_bins; ++a) {
        for (std::size_t b = 0; b < y_bins; ++b) {
            const double pxy = joint[a * y_bins + b] / n;
            if (pxy <= 0.0)
                continue;
            mi += pxy * std::log(pxy / ((px[a] / n) * (py[b] / n)));
        }
    }
    return std::max(mi, 0.0);
}

double
histogramMutualInformation(const std::vector<double> &x,
                           const std::vector<double> &y,
                           std::size_t num_bins)
{
    return discreteMutualInformation(quantileBins(x, num_bins),
                                     quantileBins(y, num_bins), num_bins,
                                     num_bins);
}

GaussianMiEstimator::GaussianMiEstimator(
    const std::vector<std::vector<double>> &variables, double ridge)
    : cov_(covarianceMatrix(variables, /*ridge=*/0.0))
{
    GCM_ASSERT(ridge > 0.0, "GaussianMiEstimator: ridge must be > 0");
    // Scale the ridge by the average variance so the regularization is
    // invariant to the units of the inputs.
    double avg_var = 0.0;
    for (std::size_t i = 0; i < cov_.size(); ++i)
        avg_var += cov_.at(i, i);
    avg_var /= static_cast<double>(cov_.size());
    const double eps = std::max(ridge * avg_var, 1e-12);
    for (std::size_t i = 0; i < cov_.size(); ++i)
        cov_.at(i, i) += eps;
}

double
GaussianMiEstimator::setMi(const std::vector<std::size_t> &s,
                           const std::vector<std::size_t> &r) const
{
    GCM_ASSERT(!s.empty() && !r.empty(), "setMi: empty index set");
    std::vector<std::size_t> joint = s;
    joint.insert(joint.end(), r.begin(), r.end());
    const double ld_s = choleskyLogDet(cov_.submatrix(s));
    const double ld_r = choleskyLogDet(cov_.submatrix(r));
    const double ld_j = choleskyLogDet(cov_.submatrix(joint));
    return std::max(0.5 * (ld_s + ld_r - ld_j), 0.0);
}

GaussianMiSelection::GaussianMiSelection(const GaussianMiEstimator &mi)
    : cov_(mi.covariance()), prec_(0), selected_(cov_.size(), false),
      remaining_(cov_.size()), cond_var_(cov_.size())
{
    auto inv = choleskyInverse(cov_);
    prec_ = std::move(inv.inverse);
    ld_v_ = inv.log_det;
    ld_r_ = inv.log_det;
    for (std::size_t c = 0; c < cov_.size(); ++c)
        cond_var_[c] = cov_.at(c, c);
}

void
GaussianMiSelection::select(std::size_t b)
{
    const std::size_t n = cov_.size();
    GCM_ASSERT(b < n && !selected_[b], "GaussianMiSelection: bad pick");
    const double v_b = cond_var_[b];
    const double p_bb = prec_.at(b, b);
    if (!(v_b > 0.0) || !(p_bb > 0.0)) {
        fatal("GaussianMiSelection: covariance not positive definite "
              "at pick ", b, " (v = ", v_b, ", P = ", p_bb, ")");
    }
    selected_[b] = true;
    --remaining_;
    ld_s_ += std::log(v_b);
    ld_r_ += std::log(p_bb);

    // S side: the new Cholesky column g of Sigma_S, then v_c -= g_c^2.
    const double root = std::sqrt(v_b);
    std::vector<double> col(n, 0.0);
    col[b] = root;
    for (std::size_t c = 0; c < n; ++c) {
        if (selected_[c])
            continue;
        double s = cov_.at(c, b);
        for (const auto &g : chol_cols_)
            s -= g[c] * g[b];
        col[c] = s / root;
        cond_var_[c] -= col[c] * col[c];
    }
    chol_cols_.push_back(std::move(col));

    // R side: Sigma_{R-b}^-1 = P - P_.b P_b. / P_bb on R-b.
    for (std::size_t i = 0; i < n; ++i) {
        if (selected_[i])
            continue;
        const double f = prec_.at(i, b) / p_bb;
        for (std::size_t j = 0; j < n; ++j) {
            if (!selected_[j])
                prec_.at(i, j) -= f * prec_.at(b, j);
        }
    }
}

} // namespace gcm::stats
