/**
 * @file
 * Tests of the deterministic parallel execution layer: pool
 * mechanics (chunking, ordering, stress, exception propagation) and
 * the bit-identical-at-any-thread-count contract for the refactored
 * hot paths — GBT train/predict, RandomForest, the characterization
 * campaign, cross-validation and signature selection.
 */

#include <atomic>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.hh"
#include "core/cross_validation.hh"
#include "core/evaluation.hh"
#include "core/signature.hh"
#include "dnn/quantize.hh"
#include "dnn/zoo.hh"
#include "ml/gbt.hh"
#include "ml/random_forest.hh"
#include "obs/obs.hh"
#include "sim/campaign.hh"
#include "sim/device.hh"
#include "util/error.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

#include "testing_support.hh"

namespace
{

using namespace gcm;

/** Thread counts every determinism test sweeps. */
const std::vector<std::size_t> kThreadCounts{1, 2, 8};

/** Observability on and empty for the scope, then off and empty. */
struct ObsScope
{
    ObsScope()
    {
        obs::setEnabled(true);
        obs::reset();
    }
    ~ObsScope()
    {
        obs::reset();
        obs::setEnabled(false);
    }
};

/** Run fn() under each thread count and return the results. */
template <typename Fn>
auto
sweepThreads(Fn &&fn)
{
    std::vector<decltype(fn())> out;
    for (std::size_t t : kThreadCounts) {
        setThreads(t);
        out.push_back(fn());
    }
    setThreads(1);
    return out;
}

ml::Dataset
syntheticDataset(std::size_t rows, std::size_t features,
                 std::uint64_t seed)
{
    Rng rng(seed);
    ml::Dataset ds(features);
    std::vector<float> row(features);
    for (std::size_t i = 0; i < rows; ++i) {
        double y = 0.0;
        for (std::size_t f = 0; f < features; ++f) {
            row[f] = static_cast<float>(rng.uniform(-1, 1));
            if (f < 6)
                y += static_cast<double>(f + 1) * row[f];
        }
        ds.addRow(row, y + 0.05 * rng.normal());
    }
    return ds;
}

std::vector<std::vector<double>>
syntheticLatencies(std::size_t nets, std::size_t devices,
                   std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> speed(devices);
    for (auto &s : speed)
        s = rng.uniform(1.0, 8.0);
    std::vector<std::vector<double>> m(nets,
                                       std::vector<double>(devices));
    for (std::size_t n = 0; n < nets; ++n) {
        const double size = rng.uniform(50.0, 800.0);
        for (std::size_t d = 0; d < devices; ++d)
            m[n][d] = size / speed[d] * rng.lognormalFactor(0.05);
    }
    return m;
}

TEST(Parallel, ForCoversRangeOnce)
{
    setThreads(4);
    for (std::size_t grain : {std::size_t{1}, std::size_t{3},
                              std::size_t{64}, std::size_t{1000}}) {
        std::vector<int> hits(257, 0);
        parallelFor(0, hits.size(), grain,
                    [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i], 1) << "index " << i << " grain " << grain;
    }
    setThreads(1);
}

TEST(Parallel, ForEmptyAndSingleElementRanges)
{
    setThreads(4);
    int calls = 0;
    parallelFor(5, 5, 1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(7, 8, 16, [&](std::size_t i) {
        ++calls;
        EXPECT_EQ(i, 7u);
    });
    EXPECT_EQ(calls, 1);
    setThreads(1);
}

TEST(Parallel, MapPreservesIndexOrder)
{
    setThreads(8);
    const auto out = parallelMap(
        100, 1, [](std::size_t i) { return 3 * i + 1; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], 3 * i + 1);
    setThreads(1);
}

TEST(Parallel, MapSupportsNonDefaultConstructibleResults)
{
    struct NoDefault
    {
        explicit NoDefault(std::size_t v) : value(v) {}
        std::size_t value;
    };
    setThreads(4);
    const auto out = parallelMap(
        17, 2, [](std::size_t i) { return NoDefault(i * i); });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i].value, i * i);
    setThreads(1);
}

TEST(Parallel, SetThreadsControlsNumThreads)
{
    setThreads(3);
    EXPECT_EQ(numThreads(), 3u);
    setThreads(1);
    EXPECT_EQ(numThreads(), 1u);
    setThreads(0); // back to automatic
    EXPECT_GE(numThreads(), 1u);
    setThreads(1);
}

TEST(Parallel, StressManySmallBatches)
{
    setThreads(8);
    std::atomic<std::uint64_t> total{0};
    for (int round = 0; round < 200; ++round) {
        parallelFor(0, 64, 1, [&](std::size_t i) {
            total.fetch_add(i + 1, std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(total.load(), 200ull * (64ull * 65ull / 2ull));
    setThreads(1);
}

TEST(Parallel, NestedLoopsDoNotDeadlock)
{
    setThreads(4);
    const auto sums = parallelMap(8, 1, [](std::size_t outer) {
        std::vector<std::uint64_t> vals(100);
        parallelFor(0, vals.size(), 8, [&](std::size_t i) {
            vals[i] = outer * 1000 + i;
        });
        return std::accumulate(vals.begin(), vals.end(),
                               std::uint64_t{0});
    });
    for (std::size_t outer = 0; outer < sums.size(); ++outer)
        EXPECT_EQ(sums[outer], outer * 100000 + 4950);
    setThreads(1);
}

TEST(Parallel, LoopInsideAChunkRunsInlineOnItsThread)
{
    setThreads(4);
    const ObsScope obs_scope;
    // Each chunk returns its thread and the threads its nested loop's
    // indices ran on; only chunk 0 nests, so one nested loop starts.
    const auto runs = parallelMap(4, 1, [](std::size_t outer) {
        std::vector<std::thread::id> nested(outer == 0 ? 64 : 0);
        parallelFor(0, nested.size(), 1, [&](std::size_t i) {
            nested[i] = std::this_thread::get_id();
        });
        return std::make_pair(std::this_thread::get_id(), nested);
    });
    ASSERT_EQ(runs[0].second.size(), 64u);
    for (const std::thread::id id : runs[0].second)
        ASSERT_EQ(id, runs[0].first);
    // The outer loop's 4 chunks; the nested loop added none.
    EXPECT_EQ(obs::counterValue("pool.chunks"), 4u);
    EXPECT_EQ(obs::counterValue("pool.batches"), 1u);
    EXPECT_EQ(obs::counterValue("pool.nested_inline"), 1u);
    setThreads(1);
}

TEST(Parallel, RegionGuardMakesLoopsOnAPlainThreadRunInline)
{
    setThreads(4);
    const ObsScope obs_scope;
    bool all_inline = true;
    std::thread worker([&] {
        const ParallelRegionGuard region;
        const std::thread::id self = std::this_thread::get_id();
        std::vector<std::thread::id> ran_on(64);
        parallelFor(0, ran_on.size(), 1, [&](std::size_t i) {
            ran_on[i] = std::this_thread::get_id();
        });
        for (const std::thread::id id : ran_on)
            all_inline = all_inline && id == self;
    });
    worker.join();
    EXPECT_TRUE(all_inline);
    EXPECT_EQ(obs::counterValue("pool.chunks"), 0u);
    EXPECT_EQ(obs::counterValue("pool.nested_inline"), 1u);
    // Out of the guard's scope the thread uses the pool again.
    parallelFor(0, 64, 1, [](std::size_t) {});
    EXPECT_EQ(obs::counterValue("pool.chunks"), 64u);
    setThreads(1);
}

TEST(Parallel, GrainForEdgeCases)
{
    static_assert(grainFor(0) == kChunkWork);
    static_assert(grainFor(1) == kChunkWork);
    static_assert(grainFor(kChunkWork) == 1);
    static_assert(grainFor(kChunkWork + 1) == 1);
    static_assert(grainFor(10 * kChunkWork) == 1);
    static_assert(grainFor(kChunkWork / 8) == 8);
    static_assert(grainFor(3) == kChunkWork / 3);
    EXPECT_GE(kChunkWork, std::size_t{1} << 15);
    EXPECT_LE(kChunkWork, std::size_t{1} << 16);
}

TEST(Parallel, PaperFitStaysUnderTheChunkBudget)
{
    // Chunk boundaries depend only on (range, grain) and every chunk
    // runs exactly once, so the count is exact at any scheduling. The
    // fit's histograms do reach the pool, and its bytes match the
    // 1-thread fit's.
    const auto ctx = core::ExperimentContext::build();
    const auto latencies = ctx.latencyMatrix(
        core::splitDevices(ctx.fleet().size(), 0.3, 1).train);
    const auto fit = [&] {
        std::ostringstream os;
        core::SignatureCostModel::train(ctx.suite(), latencies,
                                        core::SignatureCostModel::Config{})
            .serialize(os);
        return os.str();
    };
    setThreads(1);
    const std::string serial = fit();
    setThreads(4);
    const ObsScope obs_scope;
    EXPECT_EQ(fit(), serial);
    const std::uint64_t chunks = obs::counterValue("pool.chunks");
    EXPECT_GT(chunks, 0u);
    EXPECT_LT(chunks, 20000u);
    setThreads(1);
}

TEST(Parallel, ExceptionsPropagateToCaller)
{
    setThreads(4);
    EXPECT_THROW(
        parallelFor(0, 256, 1,
                    [&](std::size_t i) {
                        if (i == 93)
                            fatal("boom from task ", i);
                    }),
        GcmError);
    try {
        parallelFor(0, 256, 1, [&](std::size_t i) {
            if (i == 93)
                fatal("boom from task ", i);
        });
        FAIL() << "expected GcmError";
    } catch (const GcmError &e) {
        EXPECT_NE(std::string(e.what()).find("boom from task 93"),
                  std::string::npos);
    }
    // The pool must stay usable after a failed batch.
    std::atomic<int> ok{0};
    parallelFor(0, 64, 1, [&](std::size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 64);
    setThreads(1);
}

TEST(Parallel, GbtTrainAndPredictBitIdenticalAcrossThreads)
{
    const auto train = syntheticDataset(600, 24, 11);
    const auto test = syntheticDataset(100, 24, 12);
    ml::GbtParams params;
    params.n_estimators = 30;
    params.subsample = 0.8; // exercise the per-round RNG streams
    const auto runs = sweepThreads([&] {
        ml::GradientBoostedTrees model(params);
        model.train(train);
        std::ostringstream os;
        model.serialize(os);
        return std::make_pair(os.str(), model.predict(test));
    });
    for (std::size_t k = 1; k < runs.size(); ++k) {
        EXPECT_EQ(runs[0].first, runs[k].first)
            << "serialized model differs at " << kThreadCounts[k]
            << " threads";
        ASSERT_EQ(runs[0].second.size(), runs[k].second.size());
        for (std::size_t i = 0; i < runs[0].second.size(); ++i)
            ASSERT_EQ(runs[0].second[i], runs[k].second[i]) << "row " << i;
    }
}

TEST(Parallel, RandomForestBitIdenticalAcrossThreads)
{
    const auto train = syntheticDataset(400, 16, 21);
    ml::RandomForestParams params;
    params.n_trees = 24;
    params.max_depth = 6;
    const auto runs = sweepThreads([&] {
        ml::RandomForest forest(params);
        forest.train(train);
        return forest.predict(train);
    });
    for (std::size_t k = 1; k < runs.size(); ++k) {
        ASSERT_EQ(runs[0].size(), runs[k].size());
        for (std::size_t i = 0; i < runs[0].size(); ++i)
            ASSERT_EQ(runs[0][i], runs[k][i]) << "row " << i;
    }
}

TEST(Parallel, CampaignRepositoryByteIdenticalAcrossThreads)
{
    const auto fleet = sim::DeviceDatabase::standard(2020, 12);
    const sim::LatencyModel model;
    sim::CampaignConfig config;
    config.runs_per_network = 8;
    // Mixed-precision suite: exercises the hoisted quantize path and
    // the reference-in-place path for already-int8 graphs.
    std::vector<dnn::Graph> suite;
    suite.push_back(dnn::buildZooModel("mobilenet_v1_1.0"));
    suite.push_back(
        dnn::quantize(dnn::buildZooModel("mobilenet_v2_1.0")));
    suite.push_back(dnn::buildZooModel("squeezenet_1.0"));
    const sim::CharacterizationCampaign campaign(fleet, model, config);
    const auto runs =
        sweepThreads([&] { return campaign.run(suite).toCsv(); });
    for (std::size_t k = 1; k < runs.size(); ++k)
        EXPECT_EQ(runs[0], runs[k])
            << "campaign CSV differs at " << kThreadCounts[k]
            << " threads";
}

TEST(Parallel, CrossValidationBitIdenticalAcrossThreads)
{
    const auto &ctx = gcmtest::smallContext();
    const core::EvaluationHarness harness(ctx);
    core::SignatureConfig config;
    config.size = 5;
    const auto runs = sweepThreads([&] {
        return core::crossValidateSignatureModel(
            harness, ctx.fleet().size(), 3,
            core::SignatureMethod::RandomSampling, config,
            gcmtest::fastGbt());
    });
    for (std::size_t k = 1; k < runs.size(); ++k) {
        ASSERT_EQ(runs[0].fold_r2.size(), runs[k].fold_r2.size());
        for (std::size_t f = 0; f < runs[0].fold_r2.size(); ++f)
            ASSERT_EQ(runs[0].fold_r2[f], runs[k].fold_r2[f])
                << "fold " << f;
        EXPECT_EQ(runs[0].mean_r2, runs[k].mean_r2);
        EXPECT_EQ(runs[0].std_r2, runs[k].std_r2);
        EXPECT_EQ(runs[0].mean_mape_pct, runs[k].mean_mape_pct);
    }
}

TEST(Parallel, SignatureSelectionBitIdenticalAcrossThreads)
{
    const auto latencies = syntheticLatencies(40, 16, 5);
    core::SignatureConfig gaussian;
    gaussian.mi_estimator = core::MiEstimatorKind::Gaussian;
    core::SignatureConfig histogram;
    histogram.mi_estimator = core::MiEstimatorKind::Histogram;
    core::SignatureConfig sccs;
    const auto runs = sweepThreads([&] {
        return std::make_tuple(
            core::selectMisSignature(latencies, 6, gaussian),
            core::selectMisSignature(latencies, 6, histogram),
            core::selectSccsSignature(latencies, 6, sccs));
    });
    for (std::size_t k = 1; k < runs.size(); ++k) {
        EXPECT_EQ(std::get<0>(runs[0]), std::get<0>(runs[k]));
        EXPECT_EQ(std::get<1>(runs[0]), std::get<1>(runs[k]));
        EXPECT_EQ(std::get<2>(runs[0]), std::get<2>(runs[k]));
    }
}

} // namespace
