/**
 * @file
 * Fleet-scale closed loop (DESIGN.md §15): streaming measurement
 * campaign → incremental retrain → canaried hot-swap, all on the
 * simulated clock.
 *
 * The batch pipeline of the paper's Fig. 1 characterizes once,
 * trains once and deploys once. FleetController closes it: every
 * round a sampled cohort of a synthesized 10k+ device fleet runs a
 * fault-injected measurement session (sim/campaign.hh) whose uploads
 * stream into one long-lived MeasurementRepository under its
 * existing trust boundary; on a cadence the RetrainConfig trains a
 * candidate SignatureCostModel from the accumulated (sparse, then
 * imputed) matrix; the CanaryConfig gate publishes the candidate
 * through ModelRegistry::publish, shadow-evaluates it against the
 * incumbent on a clean holdout (the chaos methodology of
 * core/chaos.hh: fault-free signature latencies in, fault-free
 * ground truth out — holdout devices never join a cohort), and
 * auto-rolls back + retires the candidate on an R² regression.
 * Between rounds a persistent ServerFrontEnd serves live traffic
 * against whatever version the gate left active, so hot-swap and
 * rollback happen under load.
 *
 * Determinism contract. The whole loop is a pure function of its
 * config at any GCM_THREADS: cohorts, fault schedules and traffic
 * are drawn from forked per-round rng streams; campaign, imputation
 * and training keep the PR-2 bit-identity contract; the front end's
 * plan/execute split pins the serving shed set to the *configured*
 * worker count (TrafficConfig::workers — never the pool size); and
 * the canary evaluation is serial. renderFleetReport() therefore
 * emits byte-identical gcm-fleet/v3 JSON at 1, 2 or 8 threads. The
 * shared prediction cache's hit/miss counters are the one
 * scheduling-dependent diagnostic (see serve/frontend.hh) and are
 * deliberately excluded from the report.
 *
 * The signature set is selected once, at the bootstrap retrain, and
 * pinned for every later candidate (Config::pinned_signature):
 * fielded devices have already measured the deployed signature, so a
 * retrain that silently moved it would strand every device table.
 */

#ifndef GCM_FLEET_LOOP_HH
#define GCM_FLEET_LOOP_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cost_model.hh"
#include "core/imputation.hh"
#include "dnn/generator.hh"
#include "fleet/synthesizer.hh"
#include "serve/frontend.hh"
#include "serve/registry.hh"
#include "sim/campaign.hh"
#include "sim/repository.hh"

namespace gcm::fleet
{

/** Incremental retraining policy. */
struct RetrainConfig
{
    /** Retrain after every this-many campaign rounds. */
    std::size_t cadence_rounds = 2;
    /** Minimum observed devices before a retrain is attempted. */
    std::size_t min_train_devices = 8;
    /** Training-matrix column cap (lowest device ids win). */
    std::size_t max_train_devices = 64;
    /**
     * Fraction of the suite a device must have uploaded before it
     * becomes a training column; sparser devices wait for later
     * rounds instead of flooding the matrix with imputed cells.
     */
    double min_coverage = 0.5;
    core::SignatureMethod method =
        core::SignatureMethod::MutualInformation;
    core::SignatureConfig selection;
    core::ImputationConfig imputation;
    ml::GbtParams gbt;

    /** Throws GcmError on invalid parameters. */
    void validate() const;
};

/** Canary gate policy. */
struct CanaryConfig
{
    /** Fleet fraction reserved as the clean holdout; in (0, 1). */
    double holdout_fraction = 0.2;
    /** Holdout devices actually shadow-evaluated (cost cap). */
    std::size_t max_eval_devices = 12;
    /**
     * Tolerated holdout-R² drop of a candidate below the incumbent;
     * any larger regression triggers rollback + retire.
     */
    double max_r2_regression = 0.01;
    /** Seed of the holdout/campaign device split. */
    std::uint64_t split_seed = 17;

    /** Throws GcmError on invalid parameters. */
    void validate() const;
};

/** Live serving traffic interleaved with the campaign rounds. */
struct TrafficConfig
{
    /** Requests served per round once a model is live; 0 disables. */
    std::size_t requests_per_round = 64;
    /** Distinct client devices in the request pool. */
    std::size_t device_pool = 12;
    /** Offered load as a fraction of front-end capacity. */
    double load_factor = 1.0;
    /** Fraction of requests tagged bulk priority. */
    double bulk_fraction = 0.25;
    std::uint64_t seed = 501;
    /**
     * Front-end worker threads. Must be explicit (> 0): the DES plan
     * consumes the worker count, so inheriting the GCM_THREADS pool
     * size would make the shed set thread-count-dependent.
     */
    std::size_t workers = 2;
    /** Remaining front-end knobs; `workers` above overrides. */
    serve::FrontEndConfig frontend;

    /** Throws GcmError on invalid parameters. */
    void validate() const;
};

/** Full closed-loop configuration. */
struct FleetLoopConfig
{
    FleetSynthConfig fleet;
    /** Campaign rounds to run. */
    std::size_t rounds = 6;
    /** Devices sampled into each round's measurement cohort. */
    std::size_t devices_per_round = 24;
    /** Fault-injection rate of every measurement session; [0, 1). */
    double fault_rate = 0.1;
    /** Per-round cohort sampling stream. */
    std::uint64_t cohort_seed = 31;
    /** Generated networks appended to the zoo suite. */
    std::size_t num_random_networks = 8;
    std::uint64_t network_seed = 123;
    dnn::SearchSpace search_space;
    /**
     * Session parameters (noise, runs per network, retry policy).
     * faults / fault_seed / noise_seed are overridden per round from
     * fault_rate and the round index.
     */
    sim::CampaignConfig campaign;
    RetrainConfig retrain;
    CanaryConfig canary;
    TrafficConfig traffic;
    /**
     * Retrain ordinals whose training matrix is deterministically
     * corrupted before training — the injected-regression fixture
     * the canary gate must catch (tests/soak_fleet_loop.cc).
     */
    std::vector<std::size_t> sabotage_retrains;
    std::uint64_t sabotage_seed = 666;

    /** Throws GcmError on invalid parameters (including nested). */
    void validate() const;
};

/** What the canary gate decided about one candidate. */
enum class CanaryDecision
{
    Bootstrap,  // first model: published unconditionally
    Published,  // non-regressing: stayed active
    RolledBack, // regressed: rollback() + retire()
    Skipped,    // no candidate (too little data / training failed)
};

const char *canaryDecisionName(CanaryDecision decision);

/** One round's serving slice (absent before the first publish). */
struct RoundServeStats
{
    bool active = false;
    std::size_t offered = 0;
    std::size_t ok = 0;
    std::size_t errors = 0;
    std::size_t tier_shed = 0;
    double sim_duration_ms = 0.0;
};

/** One campaign round's accounting. */
struct RoundLog
{
    std::size_t round = 0;
    std::size_t cohort_devices = 0;
    std::uint64_t sessions_attempted = 0;
    std::uint64_t sessions_ok = 0;
    /** Uploads accepted into the streaming repository. */
    std::size_t records_appended = 0;
    /** Uploads rejected at the trust boundary (quarantined device). */
    std::size_t records_rejected = 0;
    /** Devices newly quarantined this round. */
    std::size_t quarantined_new = 0;
    /** Streaming repository size after the merge. */
    std::size_t repo_size = 0;
    double campaign_sim_ms = 0.0;
    RoundServeStats serve;
};

/** One retrain + canary decision. */
struct RetrainLog
{
    std::size_t ordinal = 0;
    /** Round index after which this retrain ran. */
    std::size_t round = 0;
    bool sabotaged = false;
    std::size_t train_devices = 0;
    std::size_t missing_cells = 0;
    std::size_t imputed_cells = 0;
    /** Candidate/incumbent clean-holdout R²; valid iff evaluated. */
    bool evaluated = false;
    double candidate_r2 = 0.0;
    double incumbent_r2 = 0.0;
    /** Version publish() assigned; 0 when the retrain was skipped. */
    serve::ModelRegistry::Version version = 0;
    CanaryDecision decision = CanaryDecision::Skipped;
    std::string reason;
};

/** Final state of one closed-loop run. */
struct FleetResult
{
    /** Pinned signature network names (empty if never bootstrapped). */
    std::vector<std::string> signature;
    std::vector<RoundLog> rounds;
    std::vector<RetrainLog> retrains;
    std::size_t publishes = 0;
    std::size_t rollbacks = 0;
    std::size_t skipped = 0;
    serve::ModelRegistry::Version final_version = 0;
    std::vector<serve::ModelRegistry::Version> registry_versions;
    std::size_t repo_size = 0;
    std::size_t quarantined_devices = 0;
    /** Holdout pool size / shadow-evaluated subset size. */
    std::size_t holdout_devices = 0;
    std::size_t eval_devices = 0;
    double sim_total_ms = 0.0;
    std::size_t served_total = 0;
    std::size_t shed_total = 0;
};

/** Runs the closed loop; see the file comment for the contract. */
class FleetController
{
  public:
    /** Validates and captures the config; builds suite + fleet. */
    explicit FleetController(FleetLoopConfig config);
    ~FleetController();

    /** Run the configured number of rounds. Call once. */
    FleetResult run();

    const sim::MeasurementRepository &repository() const
    {
        return repo_;
    }
    serve::ModelRegistry &registry() { return registry_; }
    const std::vector<std::string> &networkNames() const
    {
        return names_;
    }
    const sim::DeviceDatabase &fleet() const { return *fleet_; }

  private:
    void runRound(std::size_t round, FleetResult &result);
    void maybeRetrain(std::size_t round, FleetResult &result);
    RoundServeStats serveRound(std::size_t round);
    /** Clean-holdout R² of a model (chaos methodology, serial). */
    double evalHoldout(const core::SignatureCostModel &model) const;
    void buildFrontEnd(const core::SignatureCostModel &model);
    void ensureCleanHoldout();

    FleetLoopConfig config_;
    std::vector<dnn::Graph> suite_; // int8 deployment forms
    std::vector<std::string> names_;
    std::size_t zoo_count_ = 0; // names_[0..zoo_count_) are servable
    std::unique_ptr<sim::DeviceDatabase> fleet_;
    sim::LatencyModel model_;
    /** Fleet indices: campaign-eligible / holdout / evaluated. */
    std::vector<std::size_t> eligible_;
    std::vector<std::size_t> holdout_;
    std::vector<std::size_t> eval_holdout_;
    /** Fault-free holdout measurements (lazy; eval devices only). */
    sim::MeasurementRepository clean_holdout_;
    bool clean_holdout_ready_ = false;
    sim::MeasurementRepository repo_; // the streaming repository
    serve::ModelRegistry registry_;
    std::vector<std::size_t> pinned_signature_;
    double incumbent_r2_ = 0.0;
    std::unique_ptr<serve::ServerFrontEnd> frontend_;
    double sim_ms_ = 0.0;
    bool ran_ = false;
};

/**
 * The gcm-fleet/v3 report: config echo, pinned signature, per-round
 * and per-retrain logs and the summary block. Pure function of its
 * inputs; byte-identical at any thread count (doubles rendered
 * "%.17g", no wall-clock fields, no cache counters).
 */
std::string renderFleetReport(const FleetLoopConfig &config,
                              const FleetResult &result);

/** Convenience: construct, run, optionally render. */
FleetResult runFleetLoop(const FleetLoopConfig &config,
                         std::string *report_out = nullptr);

} // namespace gcm::fleet

#endif // GCM_FLEET_LOOP_HH
