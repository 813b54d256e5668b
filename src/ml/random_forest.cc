#include "ml/random_forest.hh"

#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <string>

#include "util/error.hh"
#include "util/parallel.hh"

namespace gcm::ml
{

RandomForest::RandomForest(RandomForestParams params) : params_(params)
{
    GCM_ASSERT(params_.n_trees > 0, "RandomForest: n_trees must be > 0");
    GCM_ASSERT(params_.feature_fraction > 0.0
                   && params_.feature_fraction <= 1.0,
               "RandomForest: feature_fraction out of (0, 1]");
}

void
RandomForest::train(const Dataset &data)
{
    GCM_ASSERT(data.numRows() > 0, "RandomForest: empty training set");
    trees_.clear();
    const std::size_t n = data.numRows();

    BinnedMatrix binned(data, params_.max_bins);

    // Variance-reduction mode: with prediction fixed at 0, the squared
    // error gradient is g = -y and the leaf weight -G/N is the mean.
    std::vector<float> grad(n);
    for (std::size_t i = 0; i < n; ++i)
        grad[i] = static_cast<float>(-data.label(i));

    TreeTrainConfig cfg;
    cfg.max_depth = params_.max_depth;
    cfg.lambda = 0.0;
    cfg.gamma = 0.0;
    cfg.min_child_weight = params_.min_child_weight;
    cfg.feature_fraction = params_.feature_fraction;

    // Each tree is a task with its own stream forked from the root
    // seed — never a draw from a shared Rng — so tree t sees the same
    // bootstrap and feature draws at any thread count, and the same
    // draws the serial loop produced.
    const Rng root(params_.seed);
    trees_ = parallelMap(params_.n_trees, 1, [&](std::size_t t) {
        Rng tree_rng = root.fork(t);
        std::vector<std::uint32_t> rows(n);
        if (params_.bootstrap) {
            for (auto &r : rows) {
                r = static_cast<std::uint32_t>(tree_rng.uniformInt(
                    0, static_cast<std::int64_t>(n) - 1));
            }
        } else {
            std::iota(rows.begin(), rows.end(), std::uint32_t{0});
        }
        return trainTree(binned, rows, grad, cfg, &tree_rng);
    });
}

double
RandomForest::predictRow(const float *x) const
{
    GCM_ASSERT(!trees_.empty(), "RandomForest: predict before train");
    double sum = 0.0;
    for (const auto &tree : trees_)
        sum += tree.predictRow(x);
    return sum / static_cast<double>(trees_.size());
}

std::vector<double>
RandomForest::predict(const Dataset &data) const
{
    // Compiled batch path; bit-identical to the per-row node walker
    // (ml/flat_ensemble.hh contract).
    return compile().predict(data);
}

FlatEnsemble
RandomForest::compile() const
{
    GCM_ASSERT(!trees_.empty(), "RandomForest: compile before train");
    return FlatEnsemble::compile(trees_, 0.0,
                                 FlatEnsemble::Combine::Mean);
}

void
RandomForest::serialize(std::ostream &os) const
{
    GCM_ASSERT(!trees_.empty(), "RandomForest::serialize: not trained");
    const auto prec =
        os.precision(std::numeric_limits<double>::max_digits10);
    // The forest does not store the training width, so derive the
    // feature-count bound the loader validates splits against.
    std::int32_t max_feature = -1;
    for (const auto &tree : trees_) {
        for (const auto &node : tree.nodes()) {
            if (!node.isLeaf() && node.feature > max_feature)
                max_feature = node.feature;
        }
    }
    os << "gcm-rf v1\n";
    os << "params " << params_.n_trees << ' ' << params_.max_depth << ' '
       << params_.min_child_weight << ' ' << params_.feature_fraction
       << ' ' << (params_.bootstrap ? 1 : 0) << ' ' << params_.max_bins
       << ' ' << params_.seed << "\n";
    os << "num_features " << (max_feature + 1) << "\n";
    os << "trees " << trees_.size() << "\n";
    for (const auto &tree : trees_)
        tree.serialize(os);
    os.precision(prec);
}

RandomForest
RandomForest::deserialize(std::istream &is)
{
    std::string magic, version, tag;
    if (!(is >> magic >> version) || magic != "gcm-rf"
        || version != "v1") {
        fatal("RandomForest::deserialize: bad header (expected "
              "'gcm-rf v1')");
    }
    RandomForestParams p;
    int bootstrap = 1;
    if (!(is >> tag >> p.n_trees >> p.max_depth >> p.min_child_weight
          >> p.feature_fraction >> bootstrap >> p.max_bins >> p.seed)
        || tag != "params") {
        fatal("RandomForest::deserialize: malformed params line");
    }
    p.bootstrap = bootstrap != 0;
    RandomForest model(p);
    std::size_t features = 0, trees = 0;
    if (!(is >> tag >> features) || tag != "num_features")
        fatal("RandomForest::deserialize: malformed num_features line");
    if (!(is >> tag >> trees) || tag != "trees" || trees == 0)
        fatal("RandomForest::deserialize: malformed trees line");
    if (trees > kMaxSerializedTrees)
        fatal("RandomForest::deserialize: tree count ", trees,
              " exceeds ", kMaxSerializedTrees);
    for (std::size_t t = 0; t < trees; ++t) {
        model.trees_.push_back(RegressionTree::deserialize(is));
        for (const auto &node : model.trees_.back().nodes()) {
            if (!node.isLeaf()
                && static_cast<std::size_t>(node.feature) >= features) {
                fatal("RandomForest::deserialize: split references "
                      "feature ", node.feature, " but the model has ",
                      features);
            }
        }
    }
    return model;
}

} // namespace gcm::ml
