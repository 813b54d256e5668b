/**
 * @file
 * Fleet closed-loop tests (DESIGN.md §15): synthesizer determinism,
 * config validation, the canary gate's publish/rollback decisions,
 * pinned-signature stability across retrains, and byte-identical
 * gcm-fleet/v3 reports at 1/2/8 threads while the front end serves
 * live traffic.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fleet/loop.hh"
#include "fleet/synthesizer.hh"
#include "util/error.hh"
#include "util/parallel.hh"

using namespace gcm;

namespace
{

/** A loop small enough for CI, large enough to retrain twice. */
fleet::FleetLoopConfig
smallConfig()
{
    fleet::FleetLoopConfig cfg;
    cfg.fleet.fleet_size = 120;
    cfg.fleet.seed_fleet_size = 40;
    cfg.rounds = 4;
    cfg.devices_per_round = 8;
    cfg.fault_rate = 0.1;
    cfg.num_random_networks = 2;
    cfg.campaign.runs_per_network = 3;
    cfg.retrain.cadence_rounds = 2;
    cfg.retrain.min_train_devices = 4;
    cfg.retrain.selection.size = 6;
    cfg.retrain.gbt.n_estimators = 20;
    cfg.canary.max_eval_devices = 6;
    cfg.traffic.requests_per_round = 24;
    cfg.traffic.workers = 2;
    return cfg;
}

} // namespace

TEST(FleetSynthesizer, DeterministicUniqueAndSeedAnchored)
{
    fleet::FleetSynthConfig cfg;
    cfg.fleet_size = 250;
    cfg.seed_fleet_size = 105;
    const sim::DeviceDatabase a = fleet::synthesizeFleet(cfg);
    const sim::DeviceDatabase b = fleet::synthesizeFleet(cfg);
    ASSERT_EQ(a.size(), 250u);

    const sim::DeviceDatabase seeds = sim::DeviceDatabase::standard(
        cfg.seed_fleet_seed, cfg.seed_fleet_size);
    std::set<std::string> names;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const sim::DeviceSpec &d = a.device(i);
        // Same config -> same fleet, device by device.
        EXPECT_EQ(d.model_name, b.device(i).model_name);
        EXPECT_DOUBLE_EQ(d.freq_ghz, b.device(i).freq_ghz);
        EXPECT_DOUBLE_EQ(d.hidden.thermal_sustain,
                         b.device(i).hidden.thermal_sustain);
        EXPECT_EQ(d.id, static_cast<std::int32_t>(i));
        EXPECT_TRUE(names.insert(d.model_name).second)
            << "duplicate model name " << d.model_name;
        // Variant keeps its seed device's chipset but jitters the
        // field-variable factors.
        const sim::DeviceSpec &seed = seeds.device(i % seeds.size());
        EXPECT_EQ(d.chipset_index, seed.chipset_index);
        EXPECT_EQ(d.model_name.rfind(seed.model_name, 0), 0u);
        EXPECT_GE(d.hidden.os_overhead, seed.hidden.os_overhead);
        EXPECT_LE(d.hidden.thermal_sustain, 1.0);
        EXPECT_GE(d.hidden.thermal_sustain, 0.05);
    }
}

TEST(FleetSynthesizer, GrowingTheFleetKeepsEarlierDevices)
{
    fleet::FleetSynthConfig small;
    small.fleet_size = 60;
    small.seed_fleet_size = 40;
    fleet::FleetSynthConfig big = small;
    big.fleet_size = 200;
    const sim::DeviceDatabase a = fleet::synthesizeFleet(small);
    const sim::DeviceDatabase b = fleet::synthesizeFleet(big);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.device(i).model_name, b.device(i).model_name);
        EXPECT_DOUBLE_EQ(a.device(i).freq_ghz, b.device(i).freq_ghz);
    }
}

TEST(FleetSynthesizer, ValidatesConfig)
{
    fleet::FleetSynthConfig cfg;
    cfg.fleet_size = 0;
    EXPECT_THROW(fleet::synthesizeFleet(cfg), GcmError);
    cfg = {};
    cfg.seed_fleet_size = 0;
    EXPECT_THROW(fleet::synthesizeFleet(cfg), GcmError);
    cfg = {};
    cfg.thermal_jitter = 0.5;
    EXPECT_THROW(fleet::synthesizeFleet(cfg), GcmError);
    cfg = {};
    cfg.freq_jitter = -0.1;
    EXPECT_THROW(fleet::synthesizeFleet(cfg), GcmError);
}

TEST(FleetConfig, ValidationRejectsDegenerateParameters)
{
    // Retrain cadence and coverage.
    fleet::FleetLoopConfig cfg = smallConfig();
    cfg.retrain.cadence_rounds = 0;
    EXPECT_THROW(cfg.validate(), GcmError);
    cfg = smallConfig();
    cfg.retrain.min_coverage = 0.0;
    EXPECT_THROW(cfg.validate(), GcmError);
    cfg = smallConfig();
    cfg.retrain.min_coverage = 1.5;
    EXPECT_THROW(cfg.validate(), GcmError);
    cfg = smallConfig();
    cfg.retrain.max_train_devices = 1;
    cfg.retrain.min_train_devices = 4;
    EXPECT_THROW(cfg.validate(), GcmError);

    // Canary holdout fraction must be a real split.
    cfg = smallConfig();
    cfg.canary.holdout_fraction = 0.0;
    EXPECT_THROW(cfg.validate(), GcmError);
    cfg = smallConfig();
    cfg.canary.holdout_fraction = 1.0;
    EXPECT_THROW(cfg.validate(), GcmError);
    cfg = smallConfig();
    cfg.canary.max_r2_regression = -0.5;
    EXPECT_THROW(cfg.validate(), GcmError);

    // Serving plan needs an explicit worker count.
    cfg = smallConfig();
    cfg.traffic.workers = 0;
    EXPECT_THROW(cfg.validate(), GcmError);
    cfg = smallConfig();
    cfg.traffic.load_factor = 0.0;
    EXPECT_THROW(cfg.validate(), GcmError);

    cfg = smallConfig();
    cfg.rounds = 0;
    EXPECT_THROW(cfg.validate(), GcmError);
    cfg = smallConfig();
    cfg.fault_rate = 1.0;
    EXPECT_THROW(cfg.validate(), GcmError);

    EXPECT_NO_THROW(smallConfig().validate());
}

TEST(FleetLoop, BootstrapsRetrainsAndServes)
{
    const fleet::FleetLoopConfig cfg = smallConfig();
    fleet::FleetController controller(cfg);
    const fleet::FleetResult result = controller.run();

    ASSERT_EQ(result.rounds.size(), 4u);
    ASSERT_EQ(result.retrains.size(), 2u);
    EXPECT_EQ(result.retrains[0].decision,
              fleet::CanaryDecision::Bootstrap);
    EXPECT_GT(result.retrains[0].candidate_r2, 0.5);
    EXPECT_EQ(result.publishes, 2u);
    EXPECT_EQ(result.rollbacks, 0u);
    EXPECT_FALSE(result.signature.empty());

    // No serving before the first publish; live traffic after.
    EXPECT_FALSE(result.rounds[0].serve.active);
    for (std::size_t r = 2; r < result.rounds.size(); ++r) {
        EXPECT_TRUE(result.rounds[r].serve.active);
        EXPECT_EQ(result.rounds[r].serve.offered, 24u);
        EXPECT_EQ(result.rounds[r].serve.ok
                      + result.rounds[r].serve.errors
                      + result.rounds[r].serve.tier_shed,
                  24u);
    }
    EXPECT_GT(result.served_total, 0u);

    // The streaming repository accumulated every accepted upload.
    std::size_t appended = 0;
    for (const auto &r : result.rounds)
        appended += r.records_appended;
    EXPECT_GT(appended, 0u);
    EXPECT_LE(controller.repository().size(), appended);
    EXPECT_EQ(result.repo_size, controller.repository().size());
    EXPECT_GT(result.sim_total_ms, 0.0);
}

TEST(FleetLoop, CanaryRollsBackSabotagedRetrainThenRecovers)
{
    fleet::FleetLoopConfig cfg = smallConfig();
    cfg.rounds = 6;
    cfg.sabotage_retrains = {1};
    fleet::FleetController controller(cfg);
    const fleet::FleetResult result = controller.run();

    ASSERT_EQ(result.retrains.size(), 3u);
    EXPECT_EQ(result.retrains[0].decision,
              fleet::CanaryDecision::Bootstrap);
    EXPECT_EQ(result.retrains[1].decision,
              fleet::CanaryDecision::RolledBack);
    EXPECT_TRUE(result.retrains[1].sabotaged);
    EXPECT_LT(result.retrains[1].candidate_r2,
              result.retrains[1].incumbent_r2
                  - cfg.canary.max_r2_regression);
    EXPECT_EQ(result.retrains[2].decision,
              fleet::CanaryDecision::Published);
    EXPECT_EQ(result.publishes, 2u);
    EXPECT_EQ(result.rollbacks, 1u);

    // The regressed candidate was retired: the registry no longer
    // resolves its version, and it is absent from the version list.
    const auto bad = result.retrains[1].version;
    EXPECT_EQ(controller.registry().snapshot(bad), nullptr);
    for (auto v : result.registry_versions)
        EXPECT_NE(v, bad);
    EXPECT_EQ(result.final_version, result.retrains[2].version);
}

TEST(FleetLoop, PinnedSignatureSurvivesRetrains)
{
    const fleet::FleetLoopConfig cfg = smallConfig();
    fleet::FleetController controller(cfg);
    const fleet::FleetResult result = controller.run();
    ASSERT_GE(result.publishes, 2u);
    const auto active = controller.registry().active();
    ASSERT_TRUE(active);
    // The second published model must serve the signature the first
    // one deployed — fielded devices already measured it.
    EXPECT_EQ(active.snapshot->costModel().signatureNames(),
              result.signature);
    EXPECT_EQ(result.signature.size(), cfg.retrain.selection.size);
}

TEST(FleetLoop, ReportByteIdenticalAt128Threads)
{
    fleet::FleetLoopConfig cfg = smallConfig();
    cfg.rounds = 3;
    const std::size_t restore = numThreads();
    std::vector<std::string> reports;
    for (std::size_t t : {1u, 2u, 8u}) {
        setThreads(t);
        std::string report;
        (void)fleet::runFleetLoop(cfg, &report);
        reports.push_back(std::move(report));
    }
    setThreads(restore);
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_EQ(reports[0], reports[1]);
    EXPECT_EQ(reports[0], reports[2]);
    // Live serving happened inside the compared reports.
    EXPECT_NE(reports[0].find("\"serve\": {\"offered\": 24"),
              std::string::npos);
    EXPECT_NE(reports[0].find("\"schema\": \"gcm-fleet/v3\""),
              std::string::npos);
}

TEST(FleetLoop, RunIsSingleShot)
{
    fleet::FleetLoopConfig cfg = smallConfig();
    cfg.rounds = 1;
    cfg.traffic.requests_per_round = 0;
    fleet::FleetController controller(cfg);
    (void)controller.run();
    EXPECT_THROW(controller.run(), GcmError);
}
