/**
 * @file
 * The zero-perturbation contract, pinned: running the GBT trainer and
 * the characterization campaign with observability off and on, at 1
 * and 8 threads, must produce byte-identical models, predictions and
 * latency CSVs. The report emitted by the instrumented run must
 * validate against the documented gcm-perf-report/v1 schema.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dnn/quantize.hh"
#include "dnn/zoo.hh"
#include "ml/gbt.hh"
#include "obs/obs.hh"
#include "sim/campaign.hh"
#include "sim/device.hh"
#include "util/json.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace
{

using namespace gcm;
using JsonValue = json::Value;
using json::parseJson;

struct Variant
{
    bool obs_on;
    std::size_t threads;
};

const std::vector<Variant> kVariants{
    {false, 1}, {false, 8}, {true, 1}, {true, 8}};

/**
 * Run fn() under each (obs, threads) variant. Returns the per-variant
 * results plus the JSON report captured from the last instrumented
 * run. Observability is reset before each instrumented run so the
 * captured report covers exactly one execution.
 */
template <typename Fn>
std::pair<std::vector<decltype(std::declval<Fn>()())>, std::string>
sweepVariants(Fn &&fn)
{
    std::vector<decltype(fn())> out;
    std::string report;
    for (const Variant &v : kVariants) {
        setThreads(v.threads);
        obs::setEnabled(v.obs_on);
        obs::reset();
        out.push_back(fn());
        if (v.obs_on)
            report = obs::reportJson();
    }
    obs::reset();
    obs::setEnabled(false);
    setThreads(1);
    return {std::move(out), std::move(report)};
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

/** Depth-first lookup of a span path like {"campaign.run", ...}. */
const JsonValue *
findSpanPath(const JsonValue &spans,
             const std::vector<std::string> &path, std::size_t depth = 0)
{
    if (depth == path.size())
        return nullptr;
    for (const auto &s : spans.array) {
        if (s.at("name").str != path[depth])
            continue;
        if (depth + 1 == path.size())
            return &s;
        return findSpanPath(s.at("children"), path, depth + 1);
    }
    return nullptr;
}

TEST(ObsDeterminism, CampaignByteIdenticalWithObsOnAndOff)
{
    const auto fleet = sim::DeviceDatabase::standard(2020, 12);
    const sim::LatencyModel model;
    sim::CampaignConfig config;
    config.runs_per_network = 8;
    std::vector<dnn::Graph> suite;
    suite.push_back(dnn::buildZooModel("mobilenet_v1_1.0"));
    suite.push_back(
        dnn::quantize(dnn::buildZooModel("mobilenet_v2_1.0")));
    suite.push_back(dnn::buildZooModel("squeezenet_1.0"));
    const sim::CharacterizationCampaign campaign(fleet, model, config);

    const auto [runs, report] =
        sweepVariants([&] { return campaign.run(suite).toCsv(); });
    for (std::size_t k = 1; k < runs.size(); ++k) {
        EXPECT_EQ(runs[0], runs[k])
            << "campaign CSV differs with obs="
            << kVariants[k].obs_on << " threads="
            << kVariants[k].threads;
    }

    // The instrumented 8-thread run must describe the campaign.
    const auto r = parseJson(report);
    EXPECT_EQ(r.at("schema").str, "gcm-perf-report/v1");
    const JsonValue *device = findSpanPath(
        r.at("spans"),
        {"campaign.run", "campaign.grid", "campaign.device"});
    ASSERT_NE(device, nullptr)
        << "span tree is missing campaign.run > campaign.grid > "
           "campaign.device";
    // One device span per fleet member; the 3-network suite runs
    // inside it, so records = 3 x 12.
    EXPECT_EQ(device->at("count").number, 12.0);
    EXPECT_EQ(r.at("counters").at("campaign.devices").number, 12.0);
    EXPECT_EQ(r.at("counters").at("campaign.records").number, 36.0);
    EXPECT_TRUE(r.at("counters").has("pool.chunks"));
    EXPECT_TRUE(r.at("counters").has("pool.batches"));
    EXPECT_EQ(r.at("gauges").at("pool.threads").number, 8.0);
}

TEST(ObsDeterminism, GbtTrainByteIdenticalWithObsOnAndOff)
{
    const auto train = syntheticDataset(600, 24, 11);
    const auto test = syntheticDataset(100, 24, 12);
    ml::GbtParams params;
    params.n_estimators = 30;
    params.subsample = 0.8;

    const auto [runs, report] = sweepVariants([&] {
        ml::GradientBoostedTrees model(params);
        model.train(train);
        std::ostringstream os;
        model.serialize(os);
        return std::make_pair(os.str(), model.predict(test));
    });
    for (std::size_t k = 1; k < runs.size(); ++k) {
        EXPECT_EQ(runs[0].first, runs[k].first)
            << "serialized model differs with obs="
            << kVariants[k].obs_on << " threads="
            << kVariants[k].threads;
        ASSERT_EQ(runs[0].second.size(), runs[k].second.size());
        for (std::size_t i = 0; i < runs[0].second.size(); ++i)
            ASSERT_EQ(runs[0].second[i], runs[k].second[i])
                << "row " << i;
    }

    const auto r = parseJson(report);
    const JsonValue *round = findSpanPath(
        r.at("spans"), {"gbt.train", "gbt.round"});
    ASSERT_NE(round, nullptr)
        << "span tree is missing gbt.train > gbt.round";
    EXPECT_EQ(round->at("count").number, 30.0);
    EXPECT_EQ(r.at("counters").at("gbt.rounds").number, 30.0);
    EXPECT_TRUE(r.at("counters").has("tree.nodes"));
}

TEST(ObsDeterminism, ReportValidatesAgainstDocumentedSchema)
{
    const auto train = syntheticDataset(200, 12, 3);
    setThreads(8);
    obs::setEnabled(true);
    obs::reset();
    ml::GbtParams params;
    params.n_estimators = 5;
    ml::GradientBoostedTrees model(params);
    model.train(train);
    const std::string json = obs::reportJson();
    obs::reset();
    obs::setEnabled(false);
    setThreads(1);

    const auto r = parseJson(json);
    // Top-level: exactly the five documented sections.
    ASSERT_TRUE(r.isObject());
    EXPECT_EQ(r.object.size(), 5u);
    EXPECT_EQ(r.at("schema").str, "gcm-perf-report/v1");
    ASSERT_TRUE(r.at("counters").isObject());
    ASSERT_TRUE(r.at("gauges").isObject());
    ASSERT_TRUE(r.at("histograms").isObject());
    ASSERT_TRUE(r.at("spans").isArray());
    for (const auto &[name, value] : r.at("counters").object) {
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(value.isNumber()) << name;
    }
    for (const auto &[name, value] : r.at("gauges").object)
        EXPECT_TRUE(value.isNumber()) << name;
    for (const auto &[name, h] : r.at("histograms").object) {
        ASSERT_TRUE(h.isObject()) << name;
        ASSERT_EQ(h.at("bounds_ms").array.size(),
                  obs::kNumHistogramBuckets - 1);
        ASSERT_EQ(h.at("counts").array.size(),
                  obs::kNumHistogramBuckets);
        double total = 0.0;
        for (const auto &c : h.at("counts").array)
            total += c.number;
        EXPECT_EQ(total, h.at("count").number) << name;
        EXPECT_GE(h.at("sum_ms").number, 0.0) << name;
    }
    // Every span node carries name/count/total_ms/children.
    std::vector<const JsonValue *> stack;
    for (const auto &s : r.at("spans").array)
        stack.push_back(&s);
    while (!stack.empty()) {
        const JsonValue *s = stack.back();
        stack.pop_back();
        EXPECT_TRUE(s->at("name").isString());
        EXPECT_GE(s->at("count").number, 1.0);
        EXPECT_GE(s->at("total_ms").number, 0.0);
        ASSERT_TRUE(s->at("children").isArray());
        for (const auto &c : s->at("children").array)
            stack.push_back(&c);
    }
}

} // namespace
