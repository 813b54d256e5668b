#include "ml/tree.hh"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>

#include "obs/obs.hh"
#include "util/error.hh"
#include "util/parallel.hh"

namespace gcm::ml
{

double
RegressionTree::predictRow(const float *x) const
{
    GCM_ASSERT(!nodes_.empty(), "predictRow: empty tree");
    std::size_t idx = 0;
    while (!nodes_[idx].isLeaf()) {
        const TreeNode &n = nodes_[idx];
        idx = static_cast<std::size_t>(
            x[n.feature] <= n.threshold ? n.left : n.right);
    }
    return nodes_[idx].value;
}

double
RegressionTree::predictBinnedRow(const BinnedMatrix &binned,
                                 std::size_t i) const
{
    GCM_ASSERT(!nodes_.empty(), "predictBinnedRow: empty tree");
    std::size_t idx = 0;
    while (!nodes_[idx].isLeaf()) {
        const TreeNode &n = nodes_[idx];
        const std::uint8_t b =
            binned.binAt(static_cast<std::size_t>(n.feature), i);
        idx = static_cast<std::size_t>(
            b <= n.binThreshold ? n.left : n.right);
    }
    return nodes_[idx].value;
}

std::size_t
RegressionTree::numLeaves() const
{
    std::size_t c = 0;
    for (const auto &n : nodes_) {
        if (n.isLeaf())
            ++c;
    }
    return c;
}

void
RegressionTree::scaleLeaves(double factor)
{
    for (auto &n : nodes_) {
        if (n.isLeaf())
            n.value = static_cast<float>(n.value * factor);
    }
}

void
RegressionTree::serialize(std::ostream &os) const
{
    const auto prec = os.precision(
        std::numeric_limits<float>::max_digits10);
    os << "tree " << nodes_.size() << "\n";
    for (const auto &n : nodes_) {
        os << "node " << n.feature << ' ' << n.threshold << ' '
           << static_cast<int>(n.binThreshold) << ' ' << n.left << ' '
           << n.right << ' ' << n.value << "\n";
    }
    os.precision(prec);
}

RegressionTree
RegressionTree::deserialize(std::istream &is)
{
    std::string tag;
    std::size_t count = 0;
    if (!(is >> tag >> count) || tag != "tree")
        fatal("RegressionTree::deserialize: expected 'tree <count>'");
    if (count == 0 || count > kMaxSerializedTreeNodes) {
        fatal("RegressionTree::deserialize: node count ", count,
              " outside [1, ", kMaxSerializedTreeNodes, "]");
    }
    std::vector<TreeNode> nodes;
    for (std::size_t k = 0; k < count; ++k) {
        TreeNode &n = nodes.emplace_back();
        int bin = 0;
        if (!(is >> tag >> n.feature >> n.threshold >> bin >> n.left
              >> n.right >> n.value)
            || tag != "node") {
            fatal("RegressionTree::deserialize: malformed node line");
        }
        if (bin < 0 || bin > 255)
            fatal("RegressionTree::deserialize: bin out of range");
        n.binThreshold = static_cast<std::uint8_t>(bin);
    }
    // Structural sanity: children must reference valid nodes.
    for (const auto &n : nodes) {
        if (n.isLeaf())
            continue;
        if (n.left < 0 || n.right < 0
            || static_cast<std::size_t>(n.left) >= nodes.size()
            || static_cast<std::size_t>(n.right) >= nodes.size()) {
            fatal("RegressionTree::deserialize: dangling child index");
        }
    }
    return RegressionTree(std::move(nodes));
}

namespace
{

/** Per-node gradient/count histograms over all active features. */
struct HistBlock
{
    std::vector<double> g;
    std::vector<std::uint32_t> n;

    void
    reset(std::size_t total_bins)
    {
        g.assign(total_bins, 0.0);
        n.assign(total_bins, 0);
    }

    /** In-place parent - child, leaving the sibling's histograms. */
    void
    subtract(const HistBlock &child)
    {
        for (std::size_t i = 0; i < g.size(); ++i) {
            g[i] -= child.g[i];
            n[i] -= child.n[i];
        }
    }
};

struct BestSplit
{
    double gain = 0.0;
    std::size_t feature = 0;
    std::uint8_t bin = 0;
    bool found = false;
};

struct Builder
{
    const BinnedMatrix &binned;
    const std::vector<float> &grad;
    const TreeTrainConfig &cfg;
    Rng *rng;
    std::vector<double> *gainOut;
    std::vector<TreeNode> nodes;
    /** Start of each active feature's bin range in a HistBlock. */
    std::vector<std::size_t> offsets;
    std::size_t totalBins = 0;

    void
    initOffsets()
    {
        offsets.reserve(binned.activeFeatures().size());
        for (std::size_t f : binned.activeFeatures()) {
            offsets.push_back(totalBins);
            totalBins += binned.featureBins(f).numBins();
        }
    }

    /** `n` rows of one key whose gradients sum to `g`. */
    struct KeySum
    {
        std::uint32_t key;
        std::uint32_t n;
        double g;
    };

    /**
     * Collapse `rows` onto `block`'s keys: per-key sums taken in row
     * order, emitted in ascending key order. A block keyed by the row
     * itself keeps one entry per row in list order, so bootstrap
     * duplicates and unsorted lists add up exactly as listed.
     */
    void
    collapse(const BinnedMatrix::Block &block,
             const std::vector<std::uint32_t> &rows,
             std::vector<KeySum> &out) const
    {
        out.clear();
        if (block.keys.empty()) {
            for (std::uint32_t i : rows)
                out.push_back({i, 1, grad[i]});
            return;
        }
        std::vector<double> g(block.numKeys, 0.0);
        std::vector<std::uint32_t> n(block.numKeys, 0);
        for (std::uint32_t i : rows) {
            const std::uint32_t k = block.keys[i];
            g[k] += grad[i];
            ++n[k];
        }
        for (std::uint32_t k = 0; k < block.numKeys; ++k) {
            if (n[k] > 0)
                out.push_back({k, n[k], g[k]});
        }
    }

    void
    accumulate(const std::vector<std::uint32_t> &rows,
               HistBlock &hist) const
    {
        const obs::TraceSpan span("tree.histogram");
        hist.reset(totalBins);
        const auto &active = binned.activeFeatures();
        std::vector<KeySum> sums;
        for (const BinnedMatrix::Block &block : binned.blocks()) {
            const std::size_t features = block.activeEnd - block.activeBegin;
            if (features == 0)
                continue;
            collapse(block, rows, sums);
            // Each feature owns a disjoint [offsets[a], offsets[a+1])
            // region of the histogram and adds the entries in order,
            // so the accumulation is bit-identical at any thread
            // count. Small nodes run as one inline chunk to skip pool
            // overhead.
            const std::size_t grain =
                sums.size() * features < 1u << 15
                    ? features
                    : std::max<std::size_t>(1, features / 32);
            parallelFor(block.activeBegin, block.activeEnd, grain,
                        [&](std::size_t a) {
                const std::uint8_t *codes = binned.keyCodes(active[a]);
                double *hg = hist.g.data() + offsets[a];
                std::uint32_t *hn = hist.n.data() + offsets[a];
                for (const KeySum &e : sums) {
                    const std::uint8_t b = codes[e.key];
                    hg[b] += e.g;
                    hn[b] += e.n;
                }
            });
        }
    }

    double
    leafWeight(double sum_g, double count) const
    {
        return -sum_g / (count + cfg.lambda);
    }

    BestSplit
    findSplit(const HistBlock &hist, double sum_g, double count) const
    {
        const obs::TraceSpan span("tree.split");
        BestSplit best;
        const double parent_score =
            sum_g * sum_g / (count + cfg.lambda);
        const auto &active = binned.activeFeatures();
        // Random-subspace sampling (RandomForest): draw a fixed-size
        // subset of at least one feature per node.
        std::vector<std::size_t> sampled;
        const bool subsample_features = cfg.feature_fraction < 1.0;
        if (subsample_features) {
            GCM_ASSERT(rng != nullptr,
                       "feature_fraction < 1 requires an rng");
            const auto want = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       cfg.feature_fraction
                       * static_cast<double>(active.size())));
            sampled =
                rng->sampleWithoutReplacement(active.size(), want);
        }
        const std::size_t n_cand =
            subsample_features ? sampled.size() : active.size();
        // Score every candidate feature independently, then reduce in
        // candidate order. The serial loop kept a running best and
        // accepted only strictly larger gains, so scanning the
        // per-candidate winners with the same `>` in the same order
        // reproduces its result (ties keep the earlier feature)
        // bit-for-bit at any thread count.
        const std::size_t grain =
            n_cand * totalBins < 1u << 15 ? n_cand : 1;
        const auto cand = parallelMap(
            n_cand, grain, [&](std::size_t c) -> BestSplit {
                const std::size_t a =
                    subsample_features ? sampled[c] : c;
                const std::size_t nb =
                    binned.featureBins(active[a]).numBins();
                const double *hg = hist.g.data() + offsets[a];
                const std::uint32_t *hn = hist.n.data() + offsets[a];
                BestSplit local;
                double gl = 0.0, nl = 0.0;
                for (std::size_t b = 0; b + 1 < nb; ++b) {
                    gl += hg[b];
                    nl += hn[b];
                    const double nr = count - nl;
                    if (nl < cfg.min_child_weight
                        || nr < cfg.min_child_weight) {
                        continue;
                    }
                    const double gr = sum_g - gl;
                    const double gain = 0.5
                            * (gl * gl / (nl + cfg.lambda)
                               + gr * gr / (nr + cfg.lambda)
                               - parent_score)
                        - cfg.gamma;
                    if (gain > local.gain) {
                        local.gain = gain;
                        local.feature = active[a];
                        local.bin = static_cast<std::uint8_t>(b);
                        local.found = true;
                    }
                }
                return local;
            });
        for (const BestSplit &c : cand) {
            if (c.found && c.gain > best.gain)
                best = c;
        }
        return best;
    }

    /**
     * Recursively grow; returns the node index. The node's histogram
     * is computed here unless the parent derived it by subtraction.
     */
    std::int32_t
    build(std::vector<std::uint32_t> &rows, std::size_t depth,
          double sum_g, HistBlock *ready_hist)
    {
        const auto idx = static_cast<std::int32_t>(nodes.size());
        nodes.emplace_back();
        // Per-node counter on the recursive grow path: guard it so the
        // disabled case is one relaxed load + branch (and gcm-lint's
        // obs-hot-loop check treats the wrapper as the sanctioned
        // form).
        GCM_OBS_GUARDED(obs::counterAdd("tree.nodes"));
        const double count = static_cast<double>(rows.size());

        const bool splittable = depth < cfg.max_depth && rows.size() >= 2;
        HistBlock local;
        HistBlock *hist = ready_hist;
        if (splittable && hist == nullptr) {
            accumulate(rows, local);
            hist = &local;
        }
        BestSplit best;
        if (splittable)
            best = findSplit(*hist, sum_g, count);

        if (!best.found || best.gain <= 0.0) {
            nodes[static_cast<std::size_t>(idx)].value =
                static_cast<float>(leafWeight(sum_g, count));
            return idx;
        }
        if (gainOut)
            (*gainOut)[best.feature] += best.gain;

        // Partition rows (order within each side is preserved, so row
        // lists stay sorted and column accesses stay forward).
        const BinnedMatrix::Block &block = binned.blockOf(best.feature);
        const std::uint8_t *codes = binned.keyCodes(best.feature);
        std::vector<std::uint32_t> left_rows, right_rows;
        left_rows.reserve(rows.size());
        right_rows.reserve(rows.size());
        double gl = 0.0;
        for (std::uint32_t i : rows) {
            if (codes[block.keyOf(i)] <= best.bin) {
                left_rows.push_back(i);
                gl += grad[i];
            } else {
                right_rows.push_back(i);
            }
        }
        rows.clear();
        rows.shrink_to_fit();

        const FeatureBins &fb = binned.featureBins(best.feature);
        GCM_ASSERT(best.bin < fb.cuts.size(),
                   "split bin outside cut range");
        {
            TreeNode &n = nodes[static_cast<std::size_t>(idx)];
            n.feature = static_cast<std::int32_t>(best.feature);
            n.binThreshold = best.bin;
            n.threshold = fb.cuts[best.bin];
        }

        // Histogram subtraction: recompute only the smaller child.
        HistBlock small_hist;
        HistBlock *left_hist = nullptr;
        HistBlock *right_hist = nullptr;
        const bool children_splittable =
            depth + 1 < cfg.max_depth;
        if (children_splittable) {
            const bool left_smaller =
                left_rows.size() <= right_rows.size();
            accumulate(left_smaller ? left_rows : right_rows,
                       small_hist);
            hist->subtract(small_hist);
            left_hist = left_smaller ? &small_hist : hist;
            right_hist = left_smaller ? hist : &small_hist;
        }

        const std::int32_t l = build(left_rows, depth + 1, gl, left_hist);
        const std::int32_t r =
            build(right_rows, depth + 1, sum_g - gl, right_hist);
        nodes[static_cast<std::size_t>(idx)].left = l;
        nodes[static_cast<std::size_t>(idx)].right = r;
        return idx;
    }
};

} // namespace

RegressionTree
trainTree(const BinnedMatrix &binned, const std::vector<std::uint32_t> &rows,
          const std::vector<float> &grad, const TreeTrainConfig &cfg,
          Rng *rng, std::vector<double> *gain_out)
{
    GCM_ASSERT(!rows.empty(), "trainTree: no rows");
    GCM_ASSERT(grad.size() == binned.numRows(),
               "trainTree: gradient size mismatch");
    if (gain_out)
        gain_out->assign(binned.numFeatures(), 0.0);

    Builder builder{binned, grad, cfg, rng, gain_out, {}, {}, 0};
    builder.initOffsets();
    double sum_g = 0.0;
    for (std::uint32_t i : rows)
        sum_g += grad[i];
    std::vector<std::uint32_t> work = rows;
    builder.build(work, 0, sum_g, nullptr);
    return RegressionTree(std::move(builder.nodes));
}

} // namespace gcm::ml
