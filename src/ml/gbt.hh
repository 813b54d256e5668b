/**
 * @file
 * Gradient-boosted regression trees with the XGBoost objective — the
 * paper's cost-model learner (gbtree booster, lr = 0.1,
 * n_estimators = 100, max_depth = 3, RMSE loss).
 */

#ifndef GCM_ML_GBT_HH
#define GCM_ML_GBT_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "ml/dataset.hh"
#include "ml/flat_ensemble.hh"
#include "ml/tree.hh"

namespace gcm::ml
{

/** Booster hyperparameters; defaults match the paper. */
struct GbtParams
{
    std::size_t n_estimators = 100;
    std::size_t max_depth = 3;
    double learning_rate = 0.1;
    /** L2 regularization on leaf weights (XGBoost lambda). */
    double lambda = 1.0;
    /** Minimum split gain (XGBoost gamma). */
    double gamma = 0.0;
    double min_child_weight = 1.0;
    /** Row subsample fraction per tree (1.0 = no subsampling). */
    double subsample = 1.0;
    std::size_t max_bins = 64;
    std::uint64_t seed = 7;
};

/** Gradient-boosted trees regressor (squared-error objective). */
class GradientBoostedTrees
{
  public:
    explicit GradientBoostedTrees(GbtParams params = {});

    /** Fit on a dataset; replaces any previous model. */
    void train(const Dataset &data);

    /**
     * Fit on a blocked dataset. Grows the same trees as
     * train(data.toDense()) whenever the per-key gradient sums of the
     * histogram kernel are exact (ml/tree.hh, DESIGN.md §4.5).
     */
    void train(const BlockedDataset &data);

    /**
     * Predict every row of a dataset through flat(). @pre trained
     */
    std::vector<double> predict(const Dataset &data) const;

    /**
     * The booster's one inference form (Combine::Sum from
     * baseScore()), built once at the end of train() and
     * deserialize(). @pre trained
     */
    const FlatEnsemble &flat() const;

    /** The trained trees, in boosting order. */
    const std::vector<RegressionTree> &trees() const { return trees_; }

    std::size_t numTrees() const { return trees_.size(); }
    double baseScore() const { return baseScore_; }

    /** Total split gain attributed to each feature. */
    const std::vector<double> &featureImportance() const
    {
        return featureGain_;
    }

    const GbtParams &params() const { return params_; }

    /**
     * Serialize the trained model to a self-describing text format
     * ("gcm-gbt v1"). Exact round trip: doubles are written with full
     * precision.
     */
    void serialize(std::ostream &os) const;

    /** Load a model written by serialize(). Throws GcmError. */
    static GradientBoostedTrees deserialize(std::istream &is);

  private:
    void trainImpl(const BinnedMatrix &binned,
                   const std::vector<double> &labels);

    GbtParams params_;
    double baseScore_ = 0.0;
    bool trained_ = false;
    std::vector<RegressionTree> trees_;
    std::vector<double> featureGain_;
    FlatEnsemble flat_;
};

} // namespace gcm::ml

#endif // GCM_ML_GBT_HH
