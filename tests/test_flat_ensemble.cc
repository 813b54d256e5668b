/**
 * @file
 * Differential tests for the compiled FlatEnsemble inference engine.
 *
 * The bit-identity contract (ml/flat_ensemble.hh) says the compiled
 * path is byte-for-byte the node walker at any thread count. These
 * tests enforce it differentially: seeded random ensembles x seeded
 * random feature matrices (including NaN features, which must fall
 * right exactly like the walker), compared bit-pattern-for-bit-pattern
 * at 1, 2 and 8 threads — plus a serve-path test that a hot-swapped
 * registry snapshot's compiled ensemble matches its source model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "ml/dataset.hh"
#include "ml/flat_ensemble.hh"
#include "ml/gbt.hh"
#include "ml/random_forest.hh"
#include "serve/registry.hh"
#include "testing_support.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

using namespace gcm;

namespace
{

/** Exact bit pattern of a double, for byte-identity assertions. */
std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    static_assert(sizeof(b) == sizeof(v));
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** Seeded random training set with feature-correlated labels. */
ml::Dataset
randomDataset(Rng &rng, std::size_t rows, std::size_t cols)
{
    ml::Dataset data(cols);
    std::vector<float> x(cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c)
            x[c] = static_cast<float>(rng.uniform(-10.0, 10.0));
        const double y =
            rng.uniform(0.0, 5.0) + 3.0 * x[0] - 0.5 * x[cols / 2];
        data.addRow(x, y);
    }
    return data;
}

/**
 * Seeded random query matrix (row-major, `cols` stride). Roughly 2%
 * of entries are NaN to exercise the falls-right traversal rule.
 */
std::vector<float>
randomQueries(Rng &rng, std::size_t rows, std::size_t cols)
{
    std::vector<float> q(rows * cols);
    for (float &v : q) {
        v = rng.uniform() < 0.02
                ? std::numeric_limits<float>::quiet_NaN()
                : static_cast<float>(rng.uniform(-12.0, 12.0));
    }
    return q;
}

/** Restores the worker-pool size when a test scope exits. */
struct ThreadRestore
{
    std::size_t saved = numThreads();
    ~ThreadRestore() { setThreads(saved); }
};

/**
 * Assert flat predictions are byte-identical to the node-walker
 * reference, per row and batched, at 1/2/8 threads.
 */
template <typename WalkerFn>
void
expectBitIdentical(const ml::FlatEnsemble &flat,
                   const std::vector<float> &queries, std::size_t cols,
                   WalkerFn &&walker)
{
    const std::size_t rows = queries.size() / cols;
    std::vector<double> reference(rows);
    for (std::size_t i = 0; i < rows; ++i)
        reference[i] = walker(queries.data() + i * cols);

    ThreadRestore restore;
    for (std::size_t threads : {1, 2, 8}) {
        setThreads(threads);
        std::vector<double> batched(rows);
        flat.predictBatch(queries.data(), rows, cols, batched.data());
        for (std::size_t i = 0; i < rows; ++i) {
            ASSERT_EQ(bitsOf(batched[i]), bitsOf(reference[i]))
                << "row " << i << " at " << threads << " threads";
        }
    }
    for (std::size_t i = 0; i < rows; ++i) {
        ASSERT_EQ(bitsOf(flat.predictRow(queries.data() + i * cols)),
                  bitsOf(reference[i]))
            << "predictRow row " << i;
    }
}

} // namespace

// --- differential fuzz: GBT vs compiled form ---------------------------

TEST(FlatEnsembleDiff, GbtBitIdenticalAcrossThreads)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        const std::size_t cols = 4 + static_cast<std::size_t>(seed);
        const ml::Dataset train = randomDataset(rng, 200, cols);

        ml::GbtParams params;
        params.n_estimators = 30;
        params.max_depth = 4;
        params.seed = seed;
        ml::GradientBoostedTrees gbt(params);
        gbt.train(train);

        // 257 rows: not a multiple of the row block, so the tail
        // block is exercised too.
        const std::vector<float> queries =
            randomQueries(rng, 257, cols);
        const ml::FlatEnsemble flat = gbt.compile();
        EXPECT_EQ(flat.numTrees(), params.n_estimators) << seed;
        expectBitIdentical(flat, queries, cols, [&](const float *x) {
            return gbt.predictRow(x);
        });
    }
}

TEST(FlatEnsembleDiff, RandomForestBitIdenticalAcrossThreads)
{
    for (std::uint64_t seed = 11; seed <= 13; ++seed) {
        Rng rng(seed);
        const std::size_t cols = 6;
        const ml::Dataset train = randomDataset(rng, 150, cols);

        ml::RandomForestParams params;
        params.n_trees = 20;
        params.max_depth = 6;
        params.seed = seed;
        ml::RandomForest forest(params);
        forest.train(train);

        const std::vector<float> queries =
            randomQueries(rng, 130, cols);
        const ml::FlatEnsemble flat = forest.compile();
        EXPECT_EQ(flat.combine(), ml::FlatEnsemble::Combine::Mean);
        expectBitIdentical(flat, queries, cols, [&](const float *x) {
            return forest.predictRow(x);
        });
    }
}

// --- the models' own Dataset predict routes through the flat form ------

TEST(FlatEnsembleDiff, ModelPredictMatchesNodeWalker)
{
    Rng rng(99);
    const std::size_t cols = 7;
    const ml::Dataset train = randomDataset(rng, 180, cols);
    const ml::Dataset query = randomDataset(rng, 95, cols);

    ml::GbtParams gp;
    gp.n_estimators = 25;
    ml::GradientBoostedTrees gbt(gp);
    gbt.train(train);
    const std::vector<double> batch = gbt.predict(query);
    ASSERT_EQ(batch.size(), query.numRows());
    for (std::size_t i = 0; i < query.numRows(); ++i) {
        EXPECT_EQ(bitsOf(batch[i]), bitsOf(gbt.predictRow(query.row(i))))
            << i;
    }

    ml::RandomForestParams fp;
    fp.n_trees = 15;
    ml::RandomForest forest(fp);
    forest.train(train);
    const std::vector<double> fbatch = forest.predict(query);
    for (std::size_t i = 0; i < query.numRows(); ++i) {
        EXPECT_EQ(bitsOf(fbatch[i]),
                  bitsOf(forest.predictRow(query.row(i))))
            << i;
    }
}

// --- serve path: a hot-swapped snapshot's compiled ensemble matches ----

TEST(FlatEnsembleServe, HotSwappedSnapshotMatchesSourceModel)
{
    const auto &ctx = gcmtest::smallContext();
    std::vector<std::size_t> devices(ctx.fleet().size());
    for (std::size_t i = 0; i < devices.size(); ++i)
        devices[i] = i;
    core::SignatureCostModel::Config cfg;
    cfg.gbt = gcmtest::fastGbt();
    const auto source = core::SignatureCostModel::train(
        ctx.suite(), ctx.latencyMatrix(devices), cfg);
    std::stringstream text;
    source.serialize(text);

    // v1 and v2 load the same artifact; the second publish hot-swaps.
    serve::ModelRegistry registry;
    for (int v = 0; v < 2; ++v) {
        std::istringstream is(text.str());
        registry.publish(serve::ModelSnapshot::fromStream(is));
    }

    // Snapshot load compiled the ensemble, and the compiled path
    // returns byte-identical predictions to the source model, which
    // predicts through the node walker here (it was never compiled).
    ASSERT_FALSE(source.compiled());
    const auto expectMatchesSource = [&](serve::ModelRegistry::Version v) {
        const auto active = registry.active();
        ASSERT_EQ(active.version, v);
        ASSERT_TRUE(active.snapshot->costModel().compiled());
        for (std::size_t n = 0; n < ctx.suite().size(); n += 5) {
            for (std::size_t d = 0; d < devices.size(); d += 7) {
                std::vector<double> sig;
                for (std::size_t s : source.signature())
                    sig.push_back(ctx.latencyMs(d, s));
                const double want =
                    source.predictMs(ctx.suite()[n], sig);
                const double got =
                    active.snapshot->costModel().predictMs(
                        ctx.suite()[n], sig);
                ASSERT_EQ(bitsOf(got), bitsOf(want))
                    << "v" << v << " network " << n << " device " << d;
            }
        }
    };
    expectMatchesSource(2);
    registry.rollback();
    expectMatchesSource(1);
}
