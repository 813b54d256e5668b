/**
 * @file
 * Unit tests for the observability layer: registry semantics
 * (counters, gauges, fixed-bucket histograms), RAII span-tree
 * assembly including cross-thread parent inheritance, the off-by-
 * default contract, and the gcm-perf-report/v1 JSON emitter.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/obs.hh"
#include "util/error.hh"
#include "util/json.hh"
#include "util/parallel.hh"

namespace
{

using namespace gcm;
using JsonValue = json::Value;
using json::parseJson;

/** Fresh, enabled registry for the test body; disabled afterwards. */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::setEnabled(true);
        obs::reset();
    }

    void
    TearDown() override
    {
        obs::reset();
        obs::setEnabled(false);
    }
};

const JsonValue *
findSpan(const JsonValue &spans, const std::string &name)
{
    for (const auto &s : spans.array) {
        if (s.at("name").str == name)
            return &s;
    }
    return nullptr;
}

TEST_F(ObsTest, DisabledCallsAreNoOps)
{
    obs::setEnabled(false);
    obs::counterAdd("c");
    obs::gaugeSet("g", 1.0);
    obs::histogramObserve("h", 1.0);
    {
        obs::TraceSpan span("s");
    }
    obs::setEnabled(true);
    const auto r = parseJson(obs::reportJson());
    EXPECT_TRUE(r.at("counters").object.empty());
    EXPECT_TRUE(r.at("gauges").object.empty());
    EXPECT_TRUE(r.at("histograms").object.empty());
    EXPECT_TRUE(r.at("spans").array.empty());
}

TEST_F(ObsTest, CountersAccumulate)
{
    obs::counterAdd("a");
    obs::counterAdd("a", 4);
    obs::counterAdd("b", 2);
    const auto r = parseJson(obs::reportJson());
    EXPECT_EQ(r.at("counters").at("a").number, 5.0);
    EXPECT_EQ(r.at("counters").at("b").number, 2.0);
}

TEST_F(ObsTest, GaugesKeepLatestValue)
{
    obs::gaugeSet("threads", 4.0);
    obs::gaugeSet("threads", 8.0);
    const auto r = parseJson(obs::reportJson());
    EXPECT_EQ(r.at("gauges").at("threads").number, 8.0);
}

TEST_F(ObsTest, HistogramBucketsObservations)
{
    obs::histogramObserve("lat", 0.0005); // bucket 0 (<= 0.001)
    obs::histogramObserve("lat", 0.5);    // bucket 3 (<= 1.0)
    obs::histogramObserve("lat", 1.0);    // bucket 3 (boundary)
    obs::histogramObserve("lat", 99999.0); // overflow bucket
    const auto r = parseJson(obs::reportJson());
    const auto &h = r.at("histograms").at("lat");
    ASSERT_EQ(h.at("bounds_ms").array.size(),
              obs::kNumHistogramBuckets - 1);
    ASSERT_EQ(h.at("counts").array.size(), obs::kNumHistogramBuckets);
    EXPECT_EQ(h.at("counts").array[0].number, 1.0);
    EXPECT_EQ(h.at("counts").array[3].number, 2.0);
    EXPECT_EQ(h.at("counts").array.back().number, 1.0);
    EXPECT_EQ(h.at("count").number, 4.0);
    EXPECT_NEAR(h.at("sum_ms").number, 100000.5005, 1e-6);
}

TEST_F(ObsTest, SpansAggregateByPath)
{
    for (int i = 0; i < 3; ++i) {
        obs::TraceSpan outer("outer");
        obs::TraceSpan inner("inner");
    }
    {
        // Same name at the top level is a different path node.
        obs::TraceSpan other("inner");
    }
    const auto r = parseJson(obs::reportJson());
    const auto &spans = r.at("spans");
    ASSERT_EQ(spans.array.size(), 2u);
    const JsonValue *outer = findSpan(spans, "outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->at("count").number, 3.0);
    EXPECT_GE(outer->at("total_ms").number, 0.0);
    ASSERT_EQ(outer->at("children").array.size(), 1u);
    EXPECT_EQ(outer->at("children").array[0].at("name").str, "inner");
    EXPECT_EQ(outer->at("children").array[0].at("count").number, 3.0);
    const JsonValue *top_inner = findSpan(spans, "inner");
    ASSERT_NE(top_inner, nullptr);
    EXPECT_EQ(top_inner->at("count").number, 1.0);
}

TEST_F(ObsTest, SpanParentScopeInheritsAcrossThreads)
{
    {
        obs::TraceSpan parent("batch");
        void *handle = obs::currentSpanHandle();
        std::thread worker([&] {
            obs::SpanParentScope scope(handle);
            obs::TraceSpan child("chunk");
        });
        worker.join();
    }
    const auto r = parseJson(obs::reportJson());
    const JsonValue *batch = findSpan(r.at("spans"), "batch");
    ASSERT_NE(batch, nullptr);
    ASSERT_EQ(batch->at("children").array.size(), 1u);
    EXPECT_EQ(batch->at("children").array[0].at("name").str, "chunk");
}

TEST_F(ObsTest, ParallelLoopsReportPoolCounters)
{
    setThreads(4);
    parallelFor(0, 64, 1, [](std::size_t) {});
    setThreads(1);
    const auto r = parseJson(obs::reportJson());
    EXPECT_EQ(r.at("counters").at("pool.batches").number, 1.0);
    EXPECT_EQ(r.at("counters").at("pool.chunks").number, 64.0);
    EXPECT_EQ(r.at("gauges").at("pool.threads").number, 4.0);
    // The per-thread breakdown must add back up to the total.
    double per_thread = 0.0;
    for (const auto &[name, value] : r.at("counters").object) {
        if (name.rfind("pool.thread.", 0) == 0)
            per_thread += value.number;
    }
    EXPECT_EQ(per_thread, 64.0);
}

TEST_F(ObsTest, ChunkSpansNestUnderSubmittingSpan)
{
    setThreads(4);
    {
        obs::TraceSpan grid("grid");
        parallelFor(0, 16, 1, [](std::size_t) {
            obs::TraceSpan item("item");
        });
    }
    setThreads(1);
    const auto r = parseJson(obs::reportJson());
    const JsonValue *grid = findSpan(r.at("spans"), "grid");
    ASSERT_NE(grid, nullptr);
    const JsonValue *item = findSpan(grid->at("children"), "item");
    ASSERT_NE(item, nullptr);
    EXPECT_EQ(item->at("count").number, 16.0);
}

TEST_F(ObsTest, JsonEscapesMetricNames)
{
    obs::counterAdd("weird \"name\"\n\\path");
    const auto r = parseJson(obs::reportJson());
    EXPECT_EQ(r.at("counters").at("weird \"name\"\n\\path").number, 1.0);
}

TEST_F(ObsTest, ReportHasSchemaTagAndAllSections)
{
    const auto r = parseJson(obs::reportJson());
    EXPECT_EQ(r.at("schema").str, "gcm-perf-report/v1");
    EXPECT_TRUE(r.at("counters").isObject());
    EXPECT_TRUE(r.at("gauges").isObject());
    EXPECT_TRUE(r.at("histograms").isObject());
    EXPECT_TRUE(r.at("spans").isArray());
}

TEST_F(ObsTest, WriteReportRoundTripsThroughFile)
{
    obs::counterAdd("c", 7);
    const std::string path = ::testing::TempDir() + "obs_report.json";
    obs::writeReport(path);
    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::stringstream ss;
    ss << is.rdbuf();
    const auto r = parseJson(ss.str());
    EXPECT_EQ(r.at("counters").at("c").number, 7.0);
    std::remove(path.c_str());
}

TEST_F(ObsTest, WriteReportToBadPathThrows)
{
    EXPECT_THROW(obs::writeReport("/nonexistent-dir/report.json"),
                 GcmError);
}

TEST_F(ObsTest, ResetClearsEverything)
{
    obs::counterAdd("c");
    obs::gaugeSet("g", 1.0);
    obs::histogramObserve("h", 1.0);
    {
        obs::TraceSpan span("s");
    }
    obs::reset();
    const auto r = parseJson(obs::reportJson());
    EXPECT_TRUE(r.at("counters").object.empty());
    EXPECT_TRUE(r.at("gauges").object.empty());
    EXPECT_TRUE(r.at("histograms").object.empty());
    EXPECT_TRUE(r.at("spans").array.empty());
}

} // namespace
