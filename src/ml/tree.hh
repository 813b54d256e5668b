/**
 * @file
 * Histogram-based regression tree used as the weak learner of
 * GradientBoostedTrees and as the bagged learner of RandomForest.
 *
 * Training follows the XGBoost formulation for the squared-error
 * objective, where the per-row second-order gradient is identically
 * 1: leaf weight -G/(N+lambda) and split gain
 *   1/2 [ G_L^2/(N_L+lambda) + G_R^2/(N_R+lambda) - G^2/(N+lambda) ]
 *     - gamma,
 * with N the row count standing in for the hessian sum. With
 * g = -y and lambda = 0 this degenerates to the classic
 * variance-reduction CART split with mean-valued leaves, which is how
 * RandomForest reuses the same trainer.
 *
 * Performance: per-feature gradient histograms are accumulated over
 * the uint8 codes of a BinnedMatrix, one column block at a time: the
 * node's rows are first collapsed to (key, gradient sum, count) per
 * key of the block, then each feature adds those entries into its
 * bins. A dense dataset's block is keyed by the row itself, so its
 * entries are the rows; a (network ‖ device) block has at most one
 * entry per network or device. For each split only the smaller
 * child's histograms are recomputed and the sibling is derived by
 * subtraction (the standard LightGBM/XGBoost trick).
 */

#ifndef GCM_ML_TREE_HH
#define GCM_ML_TREE_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "ml/binning.hh"
#include "util/rng.hh"

namespace gcm::ml
{

/**
 * Largest counts a serialized model may declare. The parsers reject a
 * larger count with GcmError and never size a container from a parsed
 * count, so a corrupt artifact cannot make them allocate without bound.
 */
inline constexpr std::size_t kMaxSerializedTreeNodes = std::size_t{1} << 20;
inline constexpr std::size_t kMaxSerializedTrees = std::size_t{1} << 16;
inline constexpr std::size_t kMaxSerializedFeatures = std::size_t{1} << 20;

/** One tree node; feature < 0 marks a leaf. */
struct TreeNode
{
    std::int32_t feature = -1;
    /** Raw-value threshold: go left when x[feature] <= threshold. */
    float threshold = 0.0f;
    /** Binned threshold: go left when bin <= binThreshold. */
    std::uint8_t binThreshold = 0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    /** Leaf output (already scaled by the caller's learning rate). */
    float value = 0.0f;

    bool isLeaf() const { return feature < 0; }
};

/** An immutable trained regression tree. */
class RegressionTree
{
  public:
    explicit RegressionTree(std::vector<TreeNode> nodes)
        : nodes_(std::move(nodes))
    {}

    /**
     * Predict from raw feature values: the one per-row node walker,
     * the reference FlatEnsemble is checked against. Leaves are
     * float; the ensemble sum over them (double, in tree order) is
     * pinned in ml/flat_ensemble.hh.
     */
    double predictRow(const float *x) const;

    /** Predict row i of a binned matrix (fast path for training). */
    double predictBinnedRow(const BinnedMatrix &binned,
                            std::size_t i) const;

    std::size_t numNodes() const { return nodes_.size(); }
    std::size_t numLeaves() const;
    const std::vector<TreeNode> &nodes() const { return nodes_; }

    /** Scale all leaf values in place (used to bake the shrinkage). */
    void scaleLeaves(double factor);

    /** Serialize to one text line per node (see gbt serialization). */
    void serialize(std::ostream &os) const;

    /** Parse a tree previously written by serialize(). */
    static RegressionTree deserialize(std::istream &is);

  private:
    std::vector<TreeNode> nodes_;
};

/** Tree-growing hyperparameters. */
struct TreeTrainConfig
{
    std::size_t max_depth = 3;
    double lambda = 1.0;
    double gamma = 0.0;
    /** Minimum row count on each side of a split. */
    double min_child_weight = 1.0;
    /**
     * Fraction of active features considered at each node; < 1 enables
     * the random-subspace behaviour RandomForest needs. Requires rng.
     */
    double feature_fraction = 1.0;
};

/**
 * Grow one tree for the squared-error objective (unit hessian).
 *
 * @param binned Pre-binned training matrix.
 * @param rows Training row indices for this tree (bootstrap/subsample).
 * @param grad Per-row gradients (indexed by original row id).
 * @param cfg Growth hyperparameters.
 * @param rng Random stream for feature sampling (may be nullptr when
 *        cfg.feature_fraction == 1).
 * @param gain_out Optional per-feature accumulated split gain
 *        (importance); resized to numFeatures when provided.
 */
RegressionTree trainTree(const BinnedMatrix &binned,
                         const std::vector<std::uint32_t> &rows,
                         const std::vector<float> &grad,
                         const TreeTrainConfig &cfg, Rng *rng,
                         std::vector<double> *gain_out = nullptr);

} // namespace gcm::ml

#endif // GCM_ML_TREE_HH
