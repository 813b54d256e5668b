#include "ml/binning.hh"

#include <algorithm>

#include "util/error.hh"

namespace gcm::ml
{

std::uint8_t
FeatureBins::binOf(float v) const
{
    const auto it = std::lower_bound(cuts.begin(), cuts.end(), v);
    return static_cast<std::uint8_t>(it - cuts.begin());
}

namespace
{

/** A sampled value and how many sampled rows carry it. */
struct Counted
{
    float value;
    std::uint32_t count;
};

/**
 * Interior quantile cuts of a sample of sample_n values, given sorted
 * by value with multiplicities. Position p of the expanded sorted
 * sample is found by walking the running count, so the cuts are the
 * ones the expanded sample would give.
 */
FeatureBins
quantileCuts(const std::vector<Counted> &sorted, std::size_t sample_n,
             std::size_t max_bins)
{
    FeatureBins fb;
    const float max_value = sorted.back().value;
    if (sorted.front().value == max_value)
        return fb;
    // Candidate cuts at interior quantiles, deduplicated.
    std::size_t idx = 0;
    std::size_t end = sorted[0].count; // positions [.., end) hold idx
    for (std::size_t b = 1; b < max_bins; ++b) {
        const auto pos = std::min(
            static_cast<std::size_t>(static_cast<double>(b)
                                     * static_cast<double>(sample_n)
                                     / static_cast<double>(max_bins)),
            sample_n - 1);
        while (pos >= end)
            end += sorted[++idx].count;
        const float cut = sorted[idx].value;
        if (fb.cuts.empty() || cut > fb.cuts.back())
            fb.cuts.push_back(cut);
    }
    // Make sure the maximum sampled value has its own bin edge below
    // it, i.e. drop a trailing cut equal to the max (values above the
    // last cut land in the final bin anyway).
    while (!fb.cuts.empty() && fb.cuts.back() >= max_value)
        fb.cuts.pop_back();
    return fb;
}

} // namespace

BinnedMatrix::BinnedMatrix(const Dataset &data, std::size_t max_bins,
                           std::size_t quantile_sample_cap)
    : numRows_(data.numRows())
{
    GCM_ASSERT(numRows_ > 0, "BinnedMatrix: empty dataset");
    bin({{data.numFeatures(), numRows_, data.row(0), nullptr}}, max_bins,
        quantile_sample_cap);
}

BinnedMatrix::BinnedMatrix(const BlockedDataset &data, std::size_t max_bins,
                           std::size_t quantile_sample_cap)
    : numRows_(data.numRows())
{
    std::vector<Source> sources;
    for (const ColumnBlock &b : data.blocks())
        sources.push_back({b.width, b.numKeys(), b.table.data(), &b.keys});
    bin(sources, max_bins, quantile_sample_cap);
}

void
BinnedMatrix::bin(const std::vector<Source> &sources, std::size_t max_bins,
                  std::size_t quantile_sample_cap)
{
    GCM_ASSERT(max_bins >= 2 && max_bins <= 256,
               "BinnedMatrix: max_bins out of [2, 256]");
    GCM_ASSERT(numRows_ > 0, "BinnedMatrix: empty dataset");

    // Deterministic strided subsample for quantile estimation.
    const std::size_t sample_n = std::min(numRows_, quantile_sample_cap);
    const double stride =
        static_cast<double>(numRows_) / static_cast<double>(sample_n);

    std::vector<Counted> col;
    for (const Source &src : sources) {
        Block block;
        if (src.keys != nullptr)
            block.keys = *src.keys;
        block.numKeys = src.numKeys;
        block.activeBegin = activeFeatures_.size();

        // The sample, as a multiplicity per key: every column of the
        // block reads its sampled values from these keys.
        std::vector<std::uint32_t> count(src.numKeys, 0);
        for (std::size_t s = 0; s < sample_n; ++s) {
            const auto i =
                static_cast<std::size_t>(static_cast<double>(s) * stride);
            ++count[block.keyOf(i)];
        }
        std::vector<std::uint32_t> sampled;
        for (std::uint32_t k = 0; k < src.numKeys; ++k) {
            if (count[k] > 0)
                sampled.push_back(k);
        }

        col.reserve(sampled.size());
        for (std::size_t c = 0; c < src.width; ++c) {
            const auto value = [&](std::size_t key) {
                return src.table[key * src.width + c];
            };
            col.clear();
            for (std::uint32_t k : sampled)
                col.push_back({value(k), count[k]});
            std::sort(col.begin(), col.end(),
                      [](const Counted &a, const Counted &b) {
                          return a.value < b.value;
                      });
            FeatureBins fb = quantileCuts(col, sample_n, max_bins);

            const std::size_t f = bins_.size();
            const std::size_t offset = codes_.size();
            columns_.push_back({blocks_.size(), offset});
            if (!fb.isConstant()) {
                codes_.resize(offset + src.numKeys);
                for (std::size_t k = 0; k < src.numKeys; ++k)
                    codes_[offset + k] = fb.binOf(value(k));
                activeFeatures_.push_back(f);
            }
            bins_.push_back(std::move(fb));
        }
        block.activeEnd = activeFeatures_.size();
        blocks_.push_back(std::move(block));
    }
}

} // namespace gcm::ml
