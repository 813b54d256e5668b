/**
 * @file
 * Quantile feature binning shared by the histogram-based tree learners
 * (GradientBoostedTrees and RandomForest).
 *
 * Each feature is discretized into at most max_bins buckets using
 * approximate quantile cut points. Codes are stored per key of the
 * feature's column block (see BlockedDataset): a dense Dataset is one
 * block keyed by the row itself, so it keeps one code per row, while a
 * (network ‖ device) set keeps one code per network and per device.
 * Constant features store no codes.
 */

#ifndef GCM_ML_BINNING_HH
#define GCM_ML_BINNING_HH

#include <cstdint>
#include <vector>

#include "ml/dataset.hh"

namespace gcm::ml
{

/** Per-feature bin cut points (bin b covers values <= cuts[b]). */
struct FeatureBins
{
    /**
     * Upper edges of all bins except the last; a value v maps to the
     * first bin whose cut is >= v, or to the last bin.
     */
    std::vector<float> cuts;

    /** Number of bins for this feature (cuts.size() + 1). */
    std::size_t numBins() const { return cuts.size() + 1; }

    /** True when the feature is constant over the fit data. */
    bool isConstant() const { return cuts.empty(); }

    /** Map a raw value to a bin index. */
    std::uint8_t binOf(float v) const;
};

/** A dataset discretized against a set of FeatureBins. */
class BinnedMatrix
{
  public:
    /** How the rows of one column block map onto its stored codes. */
    struct Block
    {
        /** Key of each row; empty when the block is keyed by the row. */
        std::vector<std::uint32_t> keys;
        std::size_t numKeys = 0;
        /** The block's entries in activeFeatures(): [begin, end). */
        std::size_t activeBegin = 0;
        std::size_t activeEnd = 0;

        std::uint32_t
        keyOf(std::size_t row) const
        {
            return keys.empty() ? static_cast<std::uint32_t>(row)
                                : keys[row];
        }
    };

    /**
     * Fit cut points on (a deterministic subsample of) the dataset and
     * bin every row: one block keyed by the row itself.
     *
     * @param data Source dataset.
     * @param max_bins Maximum bins per feature (2..=256).
     * @param quantile_sample_cap Rows used for quantile estimation;
     *        evenly strided subsample when the dataset is larger.
     */
    BinnedMatrix(const Dataset &data, std::size_t max_bins,
                 std::size_t quantile_sample_cap = 4096);

    /**
     * Bin a blocked dataset, one code per key. Cuts and codes equal
     * those of BinnedMatrix(data.toDense(), ...): the same sampled
     * rows are counted per key rather than gathered.
     */
    BinnedMatrix(const BlockedDataset &data, std::size_t max_bins,
                 std::size_t quantile_sample_cap = 4096);

    std::size_t numRows() const { return numRows_; }
    std::size_t numFeatures() const { return bins_.size(); }

    const FeatureBins &featureBins(std::size_t f) const { return bins_[f]; }

    const std::vector<Block> &blocks() const { return blocks_; }

    /** Block of feature f. */
    const Block &blockOf(std::size_t f) const
    {
        return blocks_[columns_[f].block];
    }

    /** Codes of a non-constant feature, one per key of its block. */
    const std::uint8_t *keyCodes(std::size_t f) const
    {
        return codes_.data() + columns_[f].codes;
    }

    /** Bin of feature f in row i (0 for a constant feature). */
    std::uint8_t
    binAt(std::size_t f, std::size_t i) const
    {
        if (bins_[f].isConstant())
            return 0;
        return keyCodes(f)[blockOf(f).keyOf(i)];
    }

    /** Indices of features that are not constant, ascending. */
    const std::vector<std::size_t> &activeFeatures() const
    {
        return activeFeatures_;
    }

  private:
    /** One block of the source data, borrowed while binning. */
    struct Source
    {
        std::size_t width;
        std::size_t numKeys;
        const float *table;
        /** Row keys; nullptr when keyed by the row itself. */
        const std::vector<std::uint32_t> *keys;
    };

    /** Where a feature's codes live. */
    struct Column
    {
        std::size_t block = 0;
        /** Offset into codes_ (meaningless for constant features). */
        std::size_t codes = 0;
    };

    void bin(const std::vector<Source> &sources, std::size_t max_bins,
             std::size_t quantile_sample_cap);

    std::size_t numRows_;
    std::vector<FeatureBins> bins_;
    std::vector<Block> blocks_;
    std::vector<Column> columns_;
    std::vector<std::uint8_t> codes_;
    std::vector<std::size_t> activeFeatures_;
};

} // namespace gcm::ml

#endif // GCM_ML_BINNING_HH
