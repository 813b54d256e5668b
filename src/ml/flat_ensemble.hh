/**
 * @file
 * FlatEnsemble — the compiled inference representation of a trained
 * tree ensemble (GradientBoostedTrees or RandomForest).
 *
 * Training-time structures optimize for growth: every RegressionTree
 * owns a vector of heap-allocated TreeNode objects and prediction
 * pointer-chases them row by row. Serving wants the opposite trade:
 * compile() flattens all trees of an ensemble into contiguous
 * structure-of-arrays node vectors (feature / threshold / left-child /
 * leaf-value), packed back-to-back with per-tree root offsets, laid
 * out in breadth-first order so the two children of any split are
 * adjacent. Traversal is then branch-reduced —
 *
 *     next = left[idx] + !(x[feature[idx]] <= threshold[idx])
 *
 * — one predictable loop per level instead of a data-dependent
 * pointer chase, and predictBatch() walks a whole row block through
 * one tree at a time so the tree's nodes stay cache-resident.
 *
 * Bit-identity contract
 * ---------------------
 * FlatEnsemble is a trained ensemble's one inference form. Its output
 * is bit-identical, at any GCM_THREADS, to a reference defined over
 * the source trees: each tree's RegressionTree::predictRow (the one
 * per-row node walker), summed as below. tests/test_flat_ensemble.cc
 * computes that sum locally and compares bit patterns. The
 * accumulation order is pinned HERE, in one place:
 *
 *  1. Leaf values are float (TreeNode::value); each traversal yields
 *     exactly the leaf RegressionTree::predictRow reaches. `!(x <= t)`
 *     is used rather than `x > t` so a NaN feature falls right,
 *     exactly like the walker's `x <= t ? left : right`.
 *  2. Per row, leaf values are accumulated into a double, in tree
 *     order t = 0, 1, ..., starting from the base score
 *     (GradientBoostedTrees::baseScore(), 0.0 for RandomForest):
 *         acc = base; for t: acc += (double)tree_t.predictRow(x);
 *     The double-accumulation-over-float-leaves behaviour is thereby
 *     contractual, not incidental.
 *  3. Combine::Mean performs one final division by the tree count
 *     (as double).
 *  4. predictBatch blocks rows and iterates trees outermost within a
 *     block, but each row keeps its own accumulator, so the per-row
 *     operation sequence of (2) is unchanged. Blocks are fixed-size
 *     and index-owned under parallelFor, so the split is independent
 *     of the thread count (see util/parallel.hh).
 */

#ifndef GCM_ML_FLAT_ENSEMBLE_HH
#define GCM_ML_FLAT_ENSEMBLE_HH

#include <cstdint>
#include <vector>

#include "ml/dataset.hh"
#include "ml/tree.hh"

namespace gcm::ml
{

/** Compiled SoA ensemble with branch-reduced batched traversal. */
class FlatEnsemble
{
  public:
    /** How per-tree leaf sums combine into the ensemble output. */
    enum class Combine
    {
        Sum,  // base score + sum of leaves (gradient boosting)
        Mean, // sum of leaves / tree count (bagging)
    };

    FlatEnsemble() = default;

    /**
     * Flatten a trained ensemble. Trees are packed in input order;
     * each tree is renumbered breadth-first so sibling children are
     * adjacent (right child = left child + 1).
     *
     * @param trees Trained trees (Combine::Mean requires >= 1).
     * @param base_score Accumulator start value (0.0 for Mean).
     * @param combine Reduction mode (see Combine).
     */
    static FlatEnsemble compile(const std::vector<RegressionTree> &trees,
                                double base_score, Combine combine);

    bool empty() const { return roots_.empty(); }
    std::size_t numTrees() const { return roots_.size(); }
    std::size_t numNodes() const { return feature_.size(); }
    double baseScore() const { return baseScore_; }
    Combine combine() const { return combine_; }

    /**
     * Predict one row of raw feature values — bit-identical to the
     * reference sum of the file contract.
     */
    double predictRow(const float *x) const;

    /**
     * Predict `n_rows` rows of a dense row-major feature matrix
     * (`stride` floats apart) into `out`, row-blocked and parallel
     * over blocks. out[i] is bit-identical to predictRow(row i) at
     * any thread count.
     */
    void predictBatch(const float *rows, std::size_t n_rows,
                      std::size_t stride, double *out) const;

    /**
     * A logical feature row split in two: features [0, head_width)
     * read from `head`, the rest from `tail`. Lets callers whose rows
     * share a wide common prefix (serving query rows: one network
     * encoding reused across many devices) predict without
     * materializing per-row copies of the prefix.
     */
    struct SegmentedRow
    {
        const float *head = nullptr;
        const float *tail = nullptr;
    };

    /**
     * predictBatch over segmented rows. out[i] is bit-identical to
     * predictRow over the concatenated row (the same float values
     * are loaded, only from two buffers), at any thread count.
     */
    void predictBatchSegmented(const SegmentedRow *rows,
                               std::size_t n_rows,
                               std::size_t head_width,
                               double *out) const;

    /** predictBatch over a Dataset's feature matrix. */
    std::vector<double> predict(const Dataset &data) const;

  private:
    /** Most rows walked per parallel block (one task per block). */
    static constexpr std::size_t kRowBlock = 64;

    /**
     * Rows per block, shrunk for wide rows so one block's row data
     * stays cache-resident while every tree runs through it. A pure
     * function of the stride, so the block split (and therefore the
     * parallel chunking) is independent of the thread count.
     */
    static std::size_t blockRows(std::size_t stride);

    // SoA node storage, all indexed by the flat node id. Internal
    // nodes: feature_ >= 0, left_ = flat id of the left child (right
    // is left_ + 1), threshold_ = raw split value. Leaves:
    // feature_ = -1, value_ = leaf output, left_ unused (0).
    std::vector<std::int32_t> feature_;
    std::vector<float> threshold_;
    std::vector<float> value_;
    std::vector<std::uint32_t> left_;
    /** Flat id of each tree's root, in tree order. */
    std::vector<std::uint32_t> roots_;
    double baseScore_ = 0.0;
    Combine combine_ = Combine::Sum;
};

} // namespace gcm::ml

#endif // GCM_ML_FLAT_ENSEMBLE_HH
