/**
 * @file
 * Closed-loop soak for the fleet controller, run in the TSan lane of
 * tools/check.sh (and as a ctest integration target).
 *
 * Runs the full streaming-campaign → retrain → canary loop with an
 * injected-regression retrain in the middle: retrain ordinal 1's
 * training matrix is deterministically corrupted, so the canary gate
 * must publish the bootstrap model, hot-swap the sabotaged candidate
 * in, catch the clean-holdout R² regression, auto-rollback + retire
 * it, and then accept the following clean retrain — all while the
 * multi-worker front end serves traffic between rounds (TSan watches
 * the worker threads race over the shared cache and the pinned
 * snapshots across the swaps). Asserts the acceptance criteria:
 *
 *   - decisions are exactly bootstrap, rolled_back, published
 *   - the rolled-back version is retired (unresolvable, unlisted)
 *   - the final active version is the last clean candidate
 *   - per-round serving accounting is exact (ok+errors+shed==offered)
 *   - the gcm-fleet/v3 report is byte-identical across two runs
 *
 * Plain main (no gtest): exits 0 on success, 1 with a diagnostic on
 * the first violated invariant.
 */

#include <cstdio>
#include <string>

#include "fleet/loop.hh"

using namespace gcm;

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "soak_fleet_loop: FAIL: %s\n",
                     what.c_str());
        ++failures;
    }
}

fleet::FleetLoopConfig
soakConfig()
{
    fleet::FleetLoopConfig cfg;
    cfg.fleet.fleet_size = 200;
    cfg.fleet.seed_fleet_size = 60;
    cfg.rounds = 6;
    cfg.devices_per_round = 10;
    cfg.fault_rate = 0.15;
    cfg.num_random_networks = 3;
    cfg.campaign.runs_per_network = 3;
    cfg.retrain.cadence_rounds = 2;
    cfg.retrain.min_train_devices = 4;
    cfg.retrain.selection.size = 6;
    cfg.retrain.gbt.n_estimators = 25;
    cfg.canary.max_eval_devices = 8;
    cfg.traffic.requests_per_round = 48;
    cfg.traffic.workers = 4;
    cfg.sabotage_retrains = {1};
    return cfg;
}

} // namespace

int
main()
{
    const fleet::FleetLoopConfig cfg = soakConfig();

    fleet::FleetController controller(cfg);
    const fleet::FleetResult result = controller.run();
    const std::string report = fleet::renderFleetReport(cfg, result);

    check(result.retrains.size() == 3,
          "expected 3 retrains, got "
              + std::to_string(result.retrains.size()));
    if (result.retrains.size() == 3) {
        check(result.retrains[0].decision
                  == fleet::CanaryDecision::Bootstrap,
              "retrain 0 must bootstrap");
        check(result.retrains[1].decision
                  == fleet::CanaryDecision::RolledBack,
              "sabotaged retrain 1 must roll back");
        check(result.retrains[1].candidate_r2
                  < result.retrains[1].incumbent_r2
                        - cfg.canary.max_r2_regression,
              "rolled-back candidate must show a real R2 regression");
        check(result.retrains[2].decision
                  == fleet::CanaryDecision::Published,
              "clean retrain 2 must publish");

        const auto bad = result.retrains[1].version;
        check(controller.registry().snapshot(bad) == nullptr,
              "rolled-back version must be retired");
        check(result.final_version == result.retrains[2].version,
              "final active version must be the clean candidate");
    }
    check(result.publishes == 2 && result.rollbacks == 1,
          "expected 2 publishes + 1 rollback, got "
              + std::to_string(result.publishes) + "+"
              + std::to_string(result.rollbacks));

    std::size_t served_rounds = 0;
    for (const auto &r : result.rounds) {
        if (!r.serve.active)
            continue;
        ++served_rounds;
        check(r.serve.ok + r.serve.errors + r.serve.tier_shed
                  == r.serve.offered,
              "round " + std::to_string(r.round)
                  + ": serve accounting must be exact");
        check(r.serve.offered == cfg.traffic.requests_per_round,
              "round " + std::to_string(r.round)
                  + ": offered must match the configured rate");
    }
    check(served_rounds >= 4,
          "front end must serve once a model is live");
    check(result.served_total > 0, "goodput must be positive");

    // Determinism: an identical second loop must reproduce the
    // report byte for byte (same process, warm allocator — the
    // thread-count half of the contract lives in test_fleet.cc).
    std::string report2;
    (void)fleet::runFleetLoop(cfg, &report2);
    check(report == report2, "report must be reproducible");

    if (failures == 0) {
        std::printf("soak_fleet_loop: OK: %zu rounds, %zu served, "
                    "rollback drill passed\n",
                    result.rounds.size(), result.served_total);
        return 0;
    }
    std::fprintf(stderr, "soak_fleet_loop: %d failure(s)\n", failures);
    return 1;
}
