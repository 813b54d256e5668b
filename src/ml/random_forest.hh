/**
 * @file
 * Random-forest regressor — one of the baselines the paper compared
 * against XGBoost (Section III-C). Reuses the histogram tree trainer
 * in variance-reduction mode (g = -y, h = 1, lambda = 0).
 */

#ifndef GCM_ML_RANDOM_FOREST_HH
#define GCM_ML_RANDOM_FOREST_HH

#include <cstdint>
#include <vector>

#include "ml/dataset.hh"
#include "ml/flat_ensemble.hh"
#include "ml/tree.hh"

namespace gcm::ml
{

/** Forest hyperparameters. */
struct RandomForestParams
{
    std::size_t n_trees = 100;
    std::size_t max_depth = 12;
    double min_child_weight = 3.0;
    /** Fraction of features considered per node. */
    double feature_fraction = 0.333;
    bool bootstrap = true;
    std::size_t max_bins = 64;
    std::uint64_t seed = 11;
};

/** Bagged regression-tree ensemble averaging mean-valued leaves. */
class RandomForest
{
  public:
    explicit RandomForest(RandomForestParams params = {});

    void train(const Dataset &data);

    /** Predict every row of a dataset through compile(). */
    std::vector<double> predict(const Dataset &data) const;

    /**
     * Compile the trained forest into its flat SoA inference form
     * (Combine::Mean). @pre trained (numTrees() > 0)
     */
    FlatEnsemble compile() const;

    /** The trained trees, in bagging order. */
    const std::vector<RegressionTree> &trees() const { return trees_; }

    std::size_t numTrees() const { return trees_.size(); }
    const RandomForestParams &params() const { return params_; }

  private:
    RandomForestParams params_;
    std::vector<RegressionTree> trees_;
};

} // namespace gcm::ml

#endif // GCM_ML_RANDOM_FOREST_HH
