#include "ml/gbt.hh"

#include <istream>
#include <limits>
#include <numeric>
#include <ostream>

#include "obs/obs.hh"
#include "util/error.hh"
#include "util/parallel.hh"

namespace gcm::ml
{

GradientBoostedTrees::GradientBoostedTrees(GbtParams params)
    : params_(params)
{
    GCM_ASSERT(params_.n_estimators > 0, "GBT: n_estimators must be > 0");
    GCM_ASSERT(params_.learning_rate > 0.0, "GBT: learning_rate <= 0");
    GCM_ASSERT(params_.subsample > 0.0 && params_.subsample <= 1.0,
               "GBT: subsample out of (0, 1]");
}

namespace
{

template <typename Data>
BinnedMatrix
binForTraining(const Data &data, std::size_t max_bins)
{
    GCM_ASSERT(data.numRows() > 0, "GBT: empty training set");
    const obs::TraceSpan bin_span("gbt.bin");
    return BinnedMatrix(data, max_bins);
}

} // namespace

void
GradientBoostedTrees::train(const Dataset &data)
{
    const obs::TraceSpan train_span("gbt.train");
    trainImpl(binForTraining(data, params_.max_bins), data.labels());
}

void
GradientBoostedTrees::train(const BlockedDataset &data)
{
    const obs::TraceSpan train_span("gbt.train");
    trainImpl(binForTraining(data, params_.max_bins), data.labels());
}

void
GradientBoostedTrees::trainImpl(const BinnedMatrix &binned,
                                const std::vector<double> &labels)
{
    trees_.clear();
    featureGain_.assign(binned.numFeatures(), 0.0);

    const std::size_t n = binned.numRows();
    baseScore_ = std::accumulate(labels.begin(), labels.end(), 0.0)
        / static_cast<double>(n);
    trained_ = true;

    std::vector<double> preds(n, baseScore_);
    std::vector<float> grad(n);
    std::vector<std::uint32_t> all_rows(n);
    std::iota(all_rows.begin(), all_rows.end(), std::uint32_t{0});

    TreeTrainConfig tree_cfg;
    tree_cfg.max_depth = params_.max_depth;
    tree_cfg.lambda = params_.lambda;
    tree_cfg.gamma = params_.gamma;
    tree_cfg.min_child_weight = params_.min_child_weight;

    Rng rng(params_.seed);

    std::vector<double> tree_gain;
    // Boosting is sequential across rounds (each tree fits the
    // residual of the previous ones); the parallelism lives inside a
    // round — histogram/split search in trainTree and the elementwise
    // gradient/prediction sweeps below, all index-owned and therefore
    // bit-identical at any thread count. A sweep's work per row is one
    // step for the gradient and one node per level for a tree walk.
    const std::size_t walk_grain = grainFor(params_.max_depth);
    for (std::size_t t = 0; t < params_.n_estimators; ++t) {
        const obs::TraceSpan round_span("gbt.round");
        obs::counterAdd("gbt.rounds");
        {
            // Squared-error objective: g = pred - y (unit hessian).
            const obs::TraceSpan grad_span("gbt.gradient");
            parallelFor(0, n, grainFor(1), [&](std::size_t i) {
                grad[i] = static_cast<float>(preds[i] - labels[i]);
            });
        }

        // Round t draws from its own named stream, never from a
        // shared sequential Rng, so the subsample (and any feature
        // sampling inside trainTree) depends only on (seed, t).
        Rng tree_rng = rng.fork(t);
        std::vector<std::uint32_t> rows;
        if (params_.subsample < 1.0) {
            rows.reserve(n);
            for (std::uint32_t i = 0; i < n; ++i) {
                if (tree_rng.bernoulli(params_.subsample))
                    rows.push_back(i);
            }
            if (rows.empty())
                rows = all_rows;
        } else {
            rows = all_rows;
        }

        tree_gain.assign(binned.numFeatures(), 0.0);
        RegressionTree tree = [&] {
            const obs::TraceSpan tree_span("gbt.tree");
            return trainTree(binned, rows, grad, tree_cfg, &tree_rng,
                             &tree_gain);
        }();
        tree.scaleLeaves(params_.learning_rate);
        for (std::size_t f = 0; f < tree_gain.size(); ++f)
            featureGain_[f] += tree_gain[f];

        {
            const obs::TraceSpan update_span("gbt.update");
            parallelFor(0, n, walk_grain, [&](std::size_t i) {
                preds[i] += tree.predictBinnedRow(binned, i);
            });
        }

        trees_.push_back(std::move(tree));
    }
    flat_ = FlatEnsemble::compile(trees_, baseScore_,
                                  FlatEnsemble::Combine::Sum);
}

std::vector<double>
GradientBoostedTrees::predict(const Dataset &data) const
{
    const obs::TraceSpan span("gbt.predict");
    return flat().predict(data);
}

const FlatEnsemble &
GradientBoostedTrees::flat() const
{
    GCM_ASSERT(trained_, "GBT: predict before train");
    return flat_;
}

void
GradientBoostedTrees::serialize(std::ostream &os) const
{
    GCM_ASSERT(trained_, "GBT::serialize: model not trained");
    const auto prec =
        os.precision(std::numeric_limits<double>::max_digits10);
    os << "gcm-gbt v1\n";
    os << "params " << params_.n_estimators << ' ' << params_.max_depth
       << ' ' << params_.learning_rate << ' ' << params_.lambda << ' '
       << params_.gamma << ' ' << params_.min_child_weight << ' '
       << params_.subsample << ' ' << params_.max_bins << ' '
       << params_.seed << "\n";
    os << "base_score " << baseScore_ << "\n";
    os << "num_features " << featureGain_.size() << "\n";
    os << "trees " << trees_.size() << "\n";
    for (const auto &tree : trees_)
        tree.serialize(os);
    os.precision(prec);
}

GradientBoostedTrees
GradientBoostedTrees::deserialize(std::istream &is)
{
    std::string magic, version, tag;
    if (!(is >> magic >> version) || magic != "gcm-gbt"
        || version != "v1") {
        fatal("GBT::deserialize: bad header (expected 'gcm-gbt v1')");
    }
    GbtParams p;
    if (!(is >> tag >> p.n_estimators >> p.max_depth >> p.learning_rate
          >> p.lambda >> p.gamma >> p.min_child_weight >> p.subsample
          >> p.max_bins >> p.seed)
        || tag != "params") {
        fatal("GBT::deserialize: malformed params line");
    }
    GradientBoostedTrees model(p);
    std::size_t features = 0, trees = 0;
    if (!(is >> tag >> model.baseScore_) || tag != "base_score")
        fatal("GBT::deserialize: malformed base_score line");
    if (!(is >> tag >> features) || tag != "num_features")
        fatal("GBT::deserialize: malformed num_features line");
    if (!(is >> tag >> trees) || tag != "trees")
        fatal("GBT::deserialize: malformed trees line");
    if (features > kMaxSerializedFeatures)
        fatal("GBT::deserialize: feature count ", features, " exceeds ",
              kMaxSerializedFeatures);
    if (trees > kMaxSerializedTrees)
        fatal("GBT::deserialize: tree count ", trees, " exceeds ",
              kMaxSerializedTrees);
    model.featureGain_.assign(features, 0.0);
    for (std::size_t t = 0; t < trees; ++t) {
        model.trees_.push_back(RegressionTree::deserialize(is));
        for (const auto &node : model.trees_.back().nodes()) {
            if (!node.isLeaf()
                && static_cast<std::size_t>(node.feature) >= features) {
                fatal("GBT::deserialize: split references feature ",
                      node.feature, " but the model has ", features);
            }
        }
    }
    model.trained_ = true;
    model.flat_ = FlatEnsemble::compile(model.trees_, model.baseScore_,
                                        FlatEnsemble::Combine::Sum);
    return model;
}

} // namespace gcm::ml
