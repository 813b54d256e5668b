/**
 * @file
 * Small dense linear-algebra helpers: just enough for the Gaussian
 * mutual-information estimator (covariances, Cholesky log-determinant
 * and inverse) used by MIS signature-set selection.
 */

#ifndef GCM_STATS_LINALG_HH
#define GCM_STATS_LINALG_HH

#include <cstddef>
#include <vector>

namespace gcm::stats
{

/** Dense square symmetric matrix in row-major storage. */
class SymmetricMatrix
{
  public:
    explicit SymmetricMatrix(std::size_t n) : n_(n), data_(n * n, 0.0) {}

    std::size_t size() const { return n_; }

    double &at(std::size_t i, std::size_t j) { return data_[i * n_ + j]; }
    double at(std::size_t i, std::size_t j) const
    {
        return data_[i * n_ + j];
    }

    /** Extract the principal submatrix indexed by idx. */
    SymmetricMatrix submatrix(const std::vector<std::size_t> &idx) const;

  private:
    std::size_t n_;
    std::vector<double> data_;
};

/**
 * Sample covariance matrix of variables.
 *
 * @param variables One sample vector per variable (equal lengths >= 2).
 * @param ridge Value added to the diagonal for numerical stability.
 */
SymmetricMatrix
covarianceMatrix(const std::vector<std::vector<double>> &variables,
                 double ridge = 0.0);

/**
 * log(det(A)) of a symmetric positive-definite matrix via Cholesky.
 * Throws GcmError if A is not positive definite.
 */
double choleskyLogDet(const SymmetricMatrix &a);

/** A^-1 and log(det(A)) of a symmetric positive-definite matrix. */
struct CholeskyInverse
{
    SymmetricMatrix inverse;
    double log_det;
};

/**
 * Invert a symmetric positive-definite matrix through its Cholesky
 * factor, whose pivots also give log(det(A)) exactly as
 * choleskyLogDet() computes it. Throws GcmError if A is not positive
 * definite.
 */
CholeskyInverse choleskyInverse(const SymmetricMatrix &a);

} // namespace gcm::stats

#endif // GCM_STATS_LINALG_HH
