#include "ml/random_forest.hh"

#include <numeric>

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

std::vector<double>
RandomForest::predict(const Dataset &data) const
{
    return compile().predict(data);
}

FlatEnsemble
RandomForest::compile() const
{
    GCM_ASSERT(!trees_.empty(), "RandomForest: compile before train");
    return FlatEnsemble::compile(trees_, 0.0,
                                 FlatEnsemble::Combine::Mean);
}

} // namespace gcm::ml
