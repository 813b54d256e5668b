/**
 * @file
 * Bench-labelled smoke test: trains a small booster and runs a small
 * campaign with observability enabled, prints the perf report, and
 * sanity-checks that the headline spans carry non-negative wall time.
 * Run via `ctest -L bench`; excluded from the default unit lane only
 * by label, it still completes in seconds.
 */

#include <cstdio>
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
using json::parseJson;

TEST(PerfSmoke, TrainAndCampaignUnderObservability)
{
    setThreads(8);
    obs::setEnabled(true);
    obs::reset();

    // Small but representative workload.
    Rng rng(7);
    ml::Dataset ds(16);
    std::vector<float> row(16);
    for (std::size_t i = 0; i < 400; ++i) {
        for (auto &v : row)
            v = static_cast<float>(rng.uniform(-1, 1));
        ds.addRow(row, rng.uniform(0, 10));
    }
    ml::GbtParams params;
    params.n_estimators = 20;
    ml::GradientBoostedTrees model(params);
    model.train(ds);

    const auto fleet = sim::DeviceDatabase::standard(2020, 8);
    sim::CampaignConfig config;
    config.runs_per_network = 4;
    std::vector<dnn::Graph> suite;
    suite.push_back(dnn::quantize(dnn::buildZooModel("squeezenet_1.1")));
    const sim::CharacterizationCampaign campaign(fleet,
                                                 sim::LatencyModel{},
                                                 config);
    campaign.run(suite);

    const std::string json = obs::reportJson();
    obs::reset();
    obs::setEnabled(false);
    setThreads(1);

    const auto r = parseJson(json);
    bool saw_train = false, saw_campaign = false;
    for (const auto &s : r.at("spans").array) {
        if (s.at("name").str == "gbt.train") {
            saw_train = true;
            EXPECT_GE(s.at("total_ms").number, 0.0);
        }
        if (s.at("name").str == "campaign.run") {
            saw_campaign = true;
            EXPECT_GE(s.at("total_ms").number, 0.0);
        }
    }
    EXPECT_TRUE(saw_train);
    EXPECT_TRUE(saw_campaign);

    // Human-readable artifact for the bench lane logs.
    std::printf("%s\n", json.c_str());
}

} // namespace
