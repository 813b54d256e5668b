/**
 * @file
 * Unit tests for the collaborative characterization simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "core/collaborative.hh"
#include "testing_support.hh"
#include "util/parallel.hh"

using namespace gcm;
using namespace gcm::core;

namespace
{

CollaborativeConfig
smallConfig()
{
    CollaborativeConfig cfg;
    cfg.max_devices = 8;
    cfg.contribution_fraction = 0.2;
    cfg.gbt = gcmtest::fastGbt();
    return cfg;
}

} // namespace

TEST(Collaborative, SignatureChosenUpFront)
{
    const auto &ctx = gcmtest::smallContext();
    CollaborativeSimulation sim(ctx, 6);
    EXPECT_EQ(sim.signature().size(), 6u);
}

TEST(Collaborative, RunProducesOneStepPerDevice)
{
    const auto &ctx = gcmtest::smallContext();
    CollaborativeSimulation sim(ctx, 6);
    const auto steps = sim.run(smallConfig());
    ASSERT_EQ(steps.size(), 8u);
    for (std::size_t i = 0; i < steps.size(); ++i)
        EXPECT_EQ(steps[i].num_devices, i + 1);
}

TEST(Collaborative, MeasurementAccountingIsExact)
{
    const auto &ctx = gcmtest::smallContext();
    CollaborativeSimulation sim(ctx, 6);
    const auto cfg = smallConfig();
    const auto steps = sim.run(cfg);
    const auto per_device = static_cast<std::size_t>(
        cfg.contribution_fraction
        * static_cast<double>(ctx.numNetworks() - 6));
    EXPECT_EQ(steps.back().total_measurements,
              steps.size() * (6 + per_device));
}

TEST(Collaborative, AccuracyReasonableAfterSeveralDevices)
{
    const auto &ctx = gcmtest::smallContext();
    CollaborativeSimulation sim(ctx, 6);
    const auto steps = sim.run(smallConfig());
    // The reduced context has far fewer rows than the paper's
    // 50-device run; only the qualitative behaviour is asserted.
    EXPECT_GT(steps.back().avg_r2, 0.2);
    // Later iterations should beat the one-device model.
    EXPECT_GT(steps.back().avg_r2, steps.front().avg_r2);
}

TEST(Collaborative, IsolatedCurveShapeAndImprovement)
{
    const auto &ctx = gcmtest::smallContext();
    CollaborativeSimulation sim(ctx, 6);
    const auto curve =
        sim.isolatedCurve(0, 3, gcmtest::fastGbt(), /*stride=*/5);
    ASSERT_FALSE(curve.empty());
    EXPECT_EQ(curve.front().first, 5u);
    // More training networks should eventually help.
    EXPECT_GT(curve.back().second, curve.front().second);
    // Full-data fit is a training-set fit and should be strong.
    EXPECT_GT(curve.back().second, 0.8);
}

TEST(Collaborative, CollaborativeR2ForDeviceIsHigh)
{
    const auto &ctx = gcmtest::smallContext();
    CollaborativeSimulation sim(ctx, 6);
    CollaborativeConfig cfg = smallConfig();
    cfg.max_devices = ctx.fleet().size();
    const double r2 = sim.collaborativeR2ForDevice(0, cfg);
    EXPECT_GT(r2, 0.4);
}

TEST(Collaborative, DeterministicForSeed)
{
    const auto &ctx = gcmtest::smallContext();
    CollaborativeSimulation sim(ctx, 6);
    const auto a = sim.run(smallConfig());
    const auto b = sim.run(smallConfig());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i].avg_r2, b[i].avg_r2);
}

TEST(Collaborative, OutputIsPinnedBitForBit)
{
    // Values recorded from the per-row node-walker scorer that
    // deviceR2 replaced; a rewrite of the fit or the scoring that
    // moves any bit of any step fails here, at 1 and at 8 threads.
    const double want_r2[] = {
        -0x1.e7a43e710fbap-5, -0x1.3a881cfca262cp-3,
        -0x1.86e47eeaa1853p-3, -0x1.2e80b607644c1p-3,
        0x1.8aade97787215p-2, 0x1.5c8ede03353d3p-2,
        0x1.39c6581983435p-2, 0x1.50d716505d69ap-1,
    };
    const std::pair<std::size_t, double> want_device[] = {
        {0, 0x1.ba897d6af7a6ep-1},
        {5, 0x1.bb28cf7959c84p-1},
        {17, 0x1.b6286bf6daccbp-1},
    };
    const auto &ctx = gcmtest::smallContext();
    CollaborativeSimulation sim(ctx, 6);
    const std::size_t saved = numThreads();
    for (std::size_t threads : {1, 8}) {
        SCOPED_TRACE(threads);
        setThreads(threads);
        const auto steps = sim.run(smallConfig());
        ASSERT_EQ(steps.size(), std::size(want_r2));
        for (std::size_t i = 0; i < steps.size(); ++i) {
            EXPECT_EQ(steps[i].avg_r2, want_r2[i]) << "step " << i;
            EXPECT_EQ(steps[i].total_measurements, 10 * (i + 1));
        }
        for (const auto &[device, r2] : want_device) {
            EXPECT_EQ(sim.collaborativeR2ForDevice(device, smallConfig()),
                      r2)
                << "device " << device;
        }
    }
    setThreads(saved);
}
