/**
 * @file
 * Mutual-information estimation for the MIS signature-set selection
 * algorithm (Algorithm 1 in the paper).
 *
 * Two estimators are provided:
 *
 *  - Histogram estimator: discretizes each variable into quantile bins
 *    and evaluates the discrete MI sum from the paper. Only defined
 *    pairwise, so set-valued objectives must be approximated by sums.
 *
 *  - Gaussian estimator: models variables (log-latencies) as jointly
 *    Gaussian, where I(S; R) = 1/2 (logdet Sigma_SS + logdet Sigma_RR
 *    - logdet Sigma). This gives a proper set-valued objective; the
 *    paper's submodularity citation (Krause et al.) is exactly this
 *    Gaussian sensor-placement setting.
 */

#ifndef GCM_STATS_MUTUAL_INFO_HH
#define GCM_STATS_MUTUAL_INFO_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "stats/linalg.hh"

namespace gcm::stats
{

/**
 * Discretize samples into equal-frequency (quantile) bins.
 *
 * @param v Samples.
 * @param num_bins Number of bins (>= 2).
 * @return Bin index per sample, in [0, num_bins).
 */
std::vector<std::size_t> quantileBins(const std::vector<double> &v,
                                      std::size_t num_bins);

/**
 * Discrete mutual information (in nats) between two pre-binned
 * variables, using empirical joint/marginal frequencies.
 */
double discreteMutualInformation(const std::vector<std::size_t> &xb,
                                 const std::vector<std::size_t> &yb,
                                 std::size_t x_bins, std::size_t y_bins);

/**
 * Histogram MI between two continuous samples with quantile binning.
 */
double histogramMutualInformation(const std::vector<double> &x,
                                  const std::vector<double> &y,
                                  std::size_t num_bins = 8);

/**
 * Gaussian set-valued mutual-information estimator over a fixed set of
 * variables. Construct once from the sample matrix, then query
 * I(S; R) for arbitrary disjoint index sets.
 */
class GaussianMiEstimator
{
  public:
    /**
     * @param variables One sample vector per variable (equal lengths).
     * @param ridge Diagonal regularizer; needed because the number of
     *        samples (devices) can be smaller than the number of
     *        variables (networks).
     */
    explicit GaussianMiEstimator(
        const std::vector<std::vector<double>> &variables,
        double ridge = 1e-3);

    std::size_t numVariables() const { return cov_.size(); }

    /** The ridge-regularized covariance the estimates are taken on. */
    const SymmetricMatrix &covariance() const { return cov_; }

    /**
     * Estimate I(S; R) in nats.
     *
     * @param s First index set (non-empty, disjoint from r).
     * @param r Second index set (non-empty).
     */
    double setMi(const std::vector<std::size_t> &s,
                 const std::vector<std::size_t> &r) const;

  private:
    SymmetricMatrix cov_;
};

/**
 * State of one greedy maximization of I(S; V\S) under a
 * GaussianMiEstimator, updated in place as picks move from R = V\S
 * into S. Write ld(X) for logdet Sigma_X. By the Schur complement on
 * each side,
 *
 *   I(S+c; R-c) = 1/2 [ld(S) + log v_c + ld(R) + log P_cc - ld(V)],
 *
 * with v_c = Sigma_cc - Sigma_cS Sigma_S^-1 Sigma_Sc (c's conditional
 * variance given S) and P = Sigma_R^-1. ld(V) is one number: every
 * joint set S+R is all of V in some order, and a symmetric permutation
 * leaves the determinant unchanged. So gain() is O(1); select() costs
 * one incremental-Cholesky column of Sigma_S (O(n * |S|)) and one
 * rank-1 Schur downdate of P (O(|R|^2)); the constructor's one
 * Cholesky inverse of Sigma is the only O(n^3) step. The gains equal
 * setMi(S+c, R-c) up to rounding.
 */
class GaussianMiSelection
{
  public:
    /** Start from S empty; keeps no reference to `mi`. */
    explicit GaussianMiSelection(const GaussianMiEstimator &mi);

    bool isSelected(std::size_t c) const { return selected_[c]; }

    /** |R|, the number of variables not selected yet. */
    std::size_t numRemaining() const { return remaining_; }

    /**
     * I(S+c; R-c) in nats, clamped at 0 as setMi() is. Requires c in
     * R and |R| >= 2.
     */
    double gain(std::size_t c) const
    {
        return std::max(0.5 * (ld_s_ + std::log(cond_var_[c]) + ld_r_
                               + std::log(prec_.at(c, c)) - ld_v_),
                        0.0);
    }

    /** Move b from R into S. */
    void select(std::size_t b);

  private:
    SymmetricMatrix cov_;
    /** Sigma_R^-1, kept on R's rows and columns (others are stale). */
    SymmetricMatrix prec_;
    std::vector<bool> selected_;
    std::size_t remaining_;
    double ld_v_;
    double ld_s_ = 0.0;
    double ld_r_;
    /** v_c, current for every c in R. */
    std::vector<double> cond_var_;
    /** Column k of Sigma_S's Cholesky factor, one per pick k. */
    std::vector<std::vector<double>> chol_cols_;
};

} // namespace gcm::stats

#endif // GCM_STATS_MUTUAL_INFO_HH
