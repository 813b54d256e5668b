#include "fleet/loop.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "core/evaluation.hh"
#include "dnn/quantize.hh"
#include "dnn/zoo.hh"
#include "ml/metrics.hh"
#include "obs/obs.hh"
#include "serve/protocol.hh"
#include "util/error.hh"
#include "util/json.hh"
#include "util/rng.hh"

namespace gcm::fleet
{

void
RetrainConfig::validate() const
{
    if (cadence_rounds == 0)
        fatal("RetrainConfig: cadence_rounds must be >= 1");
    if (min_train_devices < 2)
        fatal("RetrainConfig: min_train_devices must be >= 2");
    if (max_train_devices < min_train_devices) {
        fatal("RetrainConfig: max_train_devices (", max_train_devices,
              ") must be >= min_train_devices (", min_train_devices,
              ")");
    }
    if (!std::isfinite(min_coverage) || min_coverage <= 0.0
        || min_coverage > 1.0) {
        fatal("RetrainConfig: min_coverage must be in (0, 1], got ",
              min_coverage);
    }
    if (gbt.n_estimators == 0)
        fatal("RetrainConfig: gbt.n_estimators must be >= 1");
}

void
CanaryConfig::validate() const
{
    if (!std::isfinite(holdout_fraction) || holdout_fraction <= 0.0
        || holdout_fraction >= 1.0) {
        fatal("CanaryConfig: holdout_fraction must be in (0, 1), "
              "got ",
              holdout_fraction);
    }
    if (max_eval_devices == 0)
        fatal("CanaryConfig: max_eval_devices must be >= 1");
    if (!std::isfinite(max_r2_regression) || max_r2_regression < 0.0) {
        fatal("CanaryConfig: max_r2_regression must be finite and "
              ">= 0, got ",
              max_r2_regression);
    }
}

void
TrafficConfig::validate() const
{
    if (workers == 0) {
        fatal("TrafficConfig: workers must be explicit (>= 1); the "
              "serving plan consumes the worker count, so deferring "
              "to the GCM_THREADS pool size would break the "
              "any-thread-count report contract");
    }
    if (device_pool == 0)
        fatal("TrafficConfig: device_pool must be >= 1");
    if (!std::isfinite(load_factor) || load_factor <= 0.0)
        fatal("TrafficConfig: load_factor must be > 0, got ",
              load_factor);
    if (!std::isfinite(bulk_fraction) || bulk_fraction < 0.0
        || bulk_fraction > 1.0) {
        fatal("TrafficConfig: bulk_fraction must be in [0, 1], got ",
              bulk_fraction);
    }
    serve::FrontEndConfig resolved = frontend;
    resolved.workers = workers;
    resolved.validate();
}

void
FleetLoopConfig::validate() const
{
    if (rounds == 0)
        fatal("FleetLoopConfig: rounds must be >= 1");
    if (devices_per_round == 0)
        fatal("FleetLoopConfig: devices_per_round must be >= 1");
    if (!std::isfinite(fault_rate) || fault_rate < 0.0
        || fault_rate >= 1.0) {
        fatal("FleetLoopConfig: fault_rate must be in [0, 1), got ",
              fault_rate);
    }
    fleet.validate();
    campaign.validate();
    retrain.validate();
    canary.validate();
    traffic.validate();
}

const char *
canaryDecisionName(CanaryDecision decision)
{
    switch (decision) {
      case CanaryDecision::Bootstrap: return "bootstrap";
      case CanaryDecision::Published: return "published";
      case CanaryDecision::RolledBack: return "rolled_back";
      case CanaryDecision::Skipped: return "skipped";
    }
    return "?";
}

FleetController::FleetController(FleetLoopConfig config)
    : config_(std::move(config))
{
    config_.validate();

    // Suite: the 18-network zoo (servable by name through the front
    // end) plus generated networks that only the campaign measures.
    std::vector<dnn::Graph> fp32 = dnn::buildZoo();
    zoo_count_ = fp32.size();
    if (config_.num_random_networks > 0) {
        dnn::RandomNetworkGenerator gen(config_.search_space,
                                        config_.network_seed);
        auto random = gen.generateSuite(config_.num_random_networks,
                                        "fleetnet");
        for (auto &g : random)
            fp32.push_back(std::move(g));
    }
    suite_.reserve(fp32.size());
    names_.reserve(fp32.size());
    for (const auto &g : fp32) {
        suite_.push_back(dnn::quantize(g));
        names_.push_back(g.name());
    }

    fleet_ = std::make_unique<sim::DeviceDatabase>(
        synthesizeFleet(config_.fleet));

    // Holdout split, fixed for the loop's lifetime: holdout devices
    // never join a measurement cohort, so their fault-free ground
    // truth stays clean for every canary evaluation.
    const core::DeviceSplit split = core::splitDevices(
        fleet_->size(), config_.canary.holdout_fraction,
        config_.canary.split_seed);
    if (split.train.empty() || split.test.empty())
        fatal("FleetController: degenerate holdout split");
    eligible_ = split.train;
    holdout_ = split.test;
    eval_holdout_.assign(
        holdout_.begin(),
        holdout_.begin()
            + static_cast<std::ptrdiff_t>(
                std::min(config_.canary.max_eval_devices,
                         holdout_.size())));
}

FleetController::~FleetController() = default;

void
FleetController::ensureCleanHoldout()
{
    if (clean_holdout_ready_)
        return;
    // One fault-free campaign over the shadow-evaluated holdout
    // devices: its signature rows feed predictions in, its other
    // rows are the ground truth (core/chaos.hh methodology).
    std::vector<sim::DeviceSpec> specs;
    specs.reserve(eval_holdout_.size());
    for (std::size_t d : eval_holdout_)
        specs.push_back(fleet_->device(d));
    const sim::DeviceDatabase holdout_db =
        sim::DeviceDatabase::fromDevices(std::move(specs));
    sim::CampaignConfig clean = config_.campaign;
    clean.faults = sim::FaultParams{};
    const sim::CharacterizationCampaign campaign(holdout_db, model_,
                                                 clean);
    clean_holdout_ = campaign.run(suite_);
    clean_holdout_ready_ = true;
}

double
FleetController::evalHoldout(
    const core::SignatureCostModel &model) const
{
    GCM_ASSERT(clean_holdout_ready_,
               "evalHoldout: clean holdout not measured yet");
    std::vector<bool> is_sig(names_.size(), false);
    for (std::size_t s : model.signature())
        is_sig[s] = true;

    std::vector<double> y_true, y_pred;
    for (std::size_t d : eval_holdout_) {
        const std::int32_t id = fleet_->device(d).id;
        std::vector<double> sig_lat;
        sig_lat.reserve(model.signature().size());
        for (std::size_t s : model.signature())
            sig_lat.push_back(clean_holdout_.latencyMs(id, names_[s]));
        for (std::size_t n = 0; n < names_.size(); ++n) {
            if (is_sig[n])
                continue;
            y_true.push_back(clean_holdout_.latencyMs(id, names_[n]));
            y_pred.push_back(model.predictMs(suite_[n], sig_lat));
        }
    }
    return ml::r2Score(y_true, y_pred);
}

void
FleetController::buildFrontEnd(const core::SignatureCostModel &model)
{
    // Client pool: campaign-eligible devices whose fault-free
    // signature measurements seed the device table — the fleet
    // members that act as serving clients.
    const std::size_t pool_size =
        std::min(config_.traffic.device_pool, eligible_.size());
    Rng pool_rng(config_.traffic.seed);
    std::vector<std::size_t> picks =
        pool_rng.sampleWithoutReplacement(eligible_.size(), pool_size);
    std::sort(picks.begin(), picks.end());

    std::vector<sim::DeviceSpec> specs;
    specs.reserve(pool_size);
    for (std::size_t p : picks)
        specs.push_back(fleet_->device(eligible_[p]));
    const sim::DeviceDatabase pool_db =
        sim::DeviceDatabase::fromDevices(std::move(specs));

    std::vector<dnn::Graph> sig_suite;
    sig_suite.reserve(model.signature().size());
    for (std::size_t s : model.signature())
        sig_suite.push_back(suite_[s]);
    sim::CampaignConfig clean = config_.campaign;
    clean.faults = sim::FaultParams{};
    const sim::CharacterizationCampaign campaign(pool_db, model_,
                                                 clean);
    const sim::MeasurementRepository sig_repo = campaign.run(sig_suite);

    serve::PredictionService::DeviceTable table;
    for (std::size_t d = 0; d < pool_db.size(); ++d) {
        const sim::DeviceSpec &spec = pool_db.device(d);
        std::vector<double> sig;
        sig.reserve(model.signatureNames().size());
        for (const auto &name : model.signatureNames())
            sig.push_back(sig_repo.latencyMs(spec.id, name));
        table[spec.model_name] = std::move(sig);
    }

    serve::FrontEndConfig fc = config_.traffic.frontend;
    fc.workers = config_.traffic.workers;
    frontend_ = std::make_unique<serve::ServerFrontEnd>(
        registry_, std::move(table), fc);
}

void
FleetController::runRound(std::size_t round, FleetResult &result)
{
    RoundLog log;
    log.round = round;

    // Cohort: a fresh per-round draw from the campaign-eligible
    // fleet (never the holdout), on its own forked stream.
    const std::size_t k =
        std::min(config_.devices_per_round, eligible_.size());
    Rng cohort_rng = Rng(config_.cohort_seed).fork(round);
    std::vector<std::size_t> picks =
        cohort_rng.sampleWithoutReplacement(eligible_.size(), k);
    std::sort(picks.begin(), picks.end());
    std::vector<sim::DeviceSpec> specs;
    specs.reserve(k);
    for (std::size_t p : picks)
        specs.push_back(fleet_->device(eligible_[p]));
    log.cohort_devices = specs.size();
    const sim::DeviceDatabase cohort_db =
        sim::DeviceDatabase::fromDevices(std::move(specs));

    // Fault-injected measurement session; fresh fault/noise streams
    // per round so re-measured cells are new observations.
    sim::CampaignConfig cc = config_.campaign;
    cc.faults = sim::FaultParams::uniformRate(config_.fault_rate);
    cc.fault_seed =
        config_.campaign.fault_seed + 1000003 * (round + 1);
    cc.noise_seed = config_.campaign.noise_seed + 7919 * (round + 1);
    const sim::CharacterizationCampaign campaign(cohort_db, model_,
                                                 cc);
    const sim::CampaignReport report = campaign.runResilient(suite_);
    log.sessions_attempted = report.stats.sessions_attempted;
    log.sessions_ok = report.stats.sessions_ok;
    log.campaign_sim_ms = report.stats.simulated_ms;
    sim_ms_ += report.stats.simulated_ms;

    // Merge into the streaming repository under its trust boundary:
    // quarantines propagate first, then uploads from quarantined
    // devices (this round's or any earlier round's) are rejected.
    for (std::int32_t id : report.quarantined) {
        if (!repo_.isQuarantined(id)) {
            repo_.quarantine(id);
            ++log.quarantined_new;
        }
    }
    for (const auto &rec : report.repo.records()) {
        if (repo_.isQuarantined(rec.device_id)) {
            ++log.records_rejected;
            continue;
        }
        repo_.add(rec);
        ++log.records_appended;
    }
    log.repo_size = repo_.size();

    obs::counterAdd("fleet.rounds");
    obs::counterAdd("fleet.records.appended", log.records_appended);
    obs::counterAdd("fleet.records.rejected", log.records_rejected);
    obs::gaugeSet("fleet.repo.size",
                  static_cast<double>(repo_.size()));
    result.rounds.push_back(std::move(log));
}

void
FleetController::maybeRetrain(std::size_t round, FleetResult &result)
{
    RetrainLog log;
    log.ordinal = result.retrains.size();
    log.round = round;
    log.sabotaged =
        std::find(config_.sabotage_retrains.begin(),
                  config_.sabotage_retrains.end(), log.ordinal)
        != config_.sabotage_retrains.end();

    // Training columns: devices that streamed enough of the suite,
    // are not quarantined, lowest ids first (deterministic cap).
    std::map<std::int32_t, std::size_t> coverage;
    for (const auto &rec : repo_.records())
        ++coverage[rec.device_id];
    const double need =
        config_.retrain.min_coverage
        * static_cast<double>(names_.size());
    std::vector<std::int32_t> train_ids;
    for (const auto &[id, count] : coverage) {
        if (repo_.isQuarantined(id))
            continue;
        if (static_cast<double>(count) >= need)
            train_ids.push_back(id);
    }
    if (train_ids.size() > config_.retrain.max_train_devices)
        train_ids.resize(config_.retrain.max_train_devices);
    log.train_devices = train_ids.size();

    obs::counterAdd("fleet.retrains");
    if (train_ids.size() < config_.retrain.min_train_devices) {
        log.decision = CanaryDecision::Skipped;
        log.reason = "insufficient covered training devices";
        ++result.skipped;
        result.retrains.push_back(std::move(log));
        return;
    }

    auto matrix = repo_.sparseLatencyMatrix(train_ids, names_);
    log.missing_cells = repo_.missingCells(train_ids, names_);

    if (log.sabotaged) {
        // Injected regression: deterministically corrupt every
        // observed cell so the candidate trains on garbage — the
        // failure mode the canary gate exists to catch.
        Rng rng = Rng(config_.sabotage_seed).fork(log.ordinal);
        for (auto &row : matrix) {
            for (double &v : row) {
                if (std::isfinite(v))
                    v *= std::exp(rng.uniform(-1.5, 1.5));
            }
        }
    }

    core::SignatureCostModel::Config model_cfg;
    model_cfg.method = config_.retrain.method;
    model_cfg.selection = config_.retrain.selection;
    model_cfg.gbt = config_.retrain.gbt;
    model_cfg.pinned_signature = pinned_signature_;

    std::optional<core::SignatureCostModel> candidate;
    try {
        const core::ImputationStats istats = core::imputeLatencyMatrix(
            matrix, config_.retrain.imputation);
        log.imputed_cells =
            istats.nn_imputed + istats.median_imputed;
        candidate = core::SignatureCostModel::train(suite_, matrix,
                                                    model_cfg);
    } catch (const GcmError &e) {
        log.decision = CanaryDecision::Skipped;
        log.reason = std::string("training failed: ") + e.what();
        ++result.skipped;
        result.retrains.push_back(std::move(log));
        return;
    }

    // Canary gate: hot-swap the candidate in, shadow-evaluate it on
    // the clean holdout, and auto-rollback on regression. The very
    // first model has no incumbent and bootstraps unconditionally.
    ensureCleanHoldout();
    const bool bootstrap = registry_.activeVersion() == 0;
    log.version = registry_.publish(
        serve::ModelSnapshot::fromCostModel(std::move(*candidate)));
    const serve::ModelRegistry::ActiveModel active =
        registry_.active();
    const core::SignatureCostModel &published =
        active.snapshot->costModel();
    log.evaluated = true;
    log.candidate_r2 = evalHoldout(published);

    if (bootstrap) {
        pinned_signature_ = published.signature();
        result.signature = published.signatureNames();
        incumbent_r2_ = log.candidate_r2;
        log.incumbent_r2 = log.candidate_r2;
        log.decision = CanaryDecision::Bootstrap;
        log.reason = "first model; published unconditionally";
        ++result.publishes;
        buildFrontEnd(published);
        obs::counterAdd("fleet.canary.published");
    } else {
        log.incumbent_r2 = incumbent_r2_;
        if (log.candidate_r2 + config_.canary.max_r2_regression
            < incumbent_r2_) {
            registry_.rollback();
            registry_.retire(log.version);
            log.decision = CanaryDecision::RolledBack;
            log.reason =
                "clean-holdout R2 regressed beyond tolerance";
            ++result.rollbacks;
            obs::counterAdd("fleet.canary.rolled_back");
        } else {
            incumbent_r2_ = log.candidate_r2;
            log.decision = CanaryDecision::Published;
            log.reason = "non-regressing clean-holdout R2";
            ++result.publishes;
            obs::counterAdd("fleet.canary.published");
        }
    }
    result.retrains.push_back(std::move(log));
}

RoundServeStats
FleetController::serveRound(std::size_t round)
{
    RoundServeStats stats;
    stats.active = true;

    // Deterministic fixed-rate arrivals at load_factor x capacity.
    // Body and priority flags come from separate forked streams so
    // the request bytes for a round do not depend on bulk_fraction.
    std::vector<std::string> devices;
    for (const auto &[name, sig] : frontend_->deviceTable())
        devices.push_back(name);
    GCM_ASSERT(!devices.empty(), "serveRound: empty device table");

    const std::size_t n = config_.traffic.requests_per_round;
    const double step_ms =
        1000.0
        / (config_.traffic.load_factor * frontend_->capacityQps());
    Rng body_rng = Rng(config_.traffic.seed).fork(2 * round + 1);
    Rng bulk_rng = Rng(config_.traffic.seed).fork(2 * round + 2);

    std::vector<serve::Arrival> arrivals;
    arrivals.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        serve::ServeRequest request;
        request.id =
            "r" + std::to_string(round) + "-" + std::to_string(i);
        request.network = names_[static_cast<std::size_t>(
            body_rng.uniformInt(
                0, static_cast<std::int64_t>(zoo_count_) - 1))];
        request.device = devices[static_cast<std::size_t>(
            body_rng.uniformInt(
                0, static_cast<std::int64_t>(devices.size()) - 1))];
        if (bulk_rng.bernoulli(config_.traffic.bulk_fraction))
            request.priority = serve::Priority::Bulk;
        arrivals.push_back({static_cast<double>(i) * step_ms,
                            serve::renderRequest(request)});
    }

    const serve::FrontEndReport report =
        frontend_->run(arrivals, nullptr);
    stats.offered = report.offered;
    stats.ok = report.ok;
    stats.errors = report.errors;
    stats.tier_shed = report.tier_shed;
    stats.sim_duration_ms = report.sim_duration_ms;
    sim_ms_ += report.sim_duration_ms;
    obs::counterAdd("fleet.serve.offered", report.offered);
    obs::counterAdd("fleet.serve.shed", report.tier_shed);
    return stats;
}

FleetResult
FleetController::run()
{
    if (ran_)
        fatal("FleetController::run: already ran; construct a fresh "
              "controller per loop");
    ran_ = true;
    const obs::TraceSpan span("fleet.loop");

    FleetResult result;
    result.holdout_devices = holdout_.size();
    result.eval_devices = eval_holdout_.size();
    for (std::size_t round = 0; round < config_.rounds; ++round) {
        runRound(round, result);
        if ((round + 1) % config_.retrain.cadence_rounds == 0)
            maybeRetrain(round, result);
        if (frontend_ != nullptr
            && config_.traffic.requests_per_round > 0) {
            result.rounds.back().serve = serveRound(round);
        }
    }

    result.final_version = registry_.activeVersion();
    result.registry_versions = registry_.versions();
    result.repo_size = repo_.size();
    result.quarantined_devices = repo_.quarantined().size();
    result.sim_total_ms = sim_ms_;
    for (const RoundLog &r : result.rounds) {
        result.served_total += r.serve.ok + r.serve.errors;
        result.shed_total += r.serve.tier_shed;
    }
    return result;
}

FleetResult
runFleetLoop(const FleetLoopConfig &config, std::string *report_out)
{
    FleetController controller(config);
    FleetResult result = controller.run();
    if (report_out != nullptr)
        *report_out = renderFleetReport(config, result);
    return result;
}

std::string
renderFleetReport(const FleetLoopConfig &config,
                  const FleetResult &result)
{
    std::string out;
    json::Writer w(out);
    w.beginObject(json::Layout::Block).field("schema", "gcm-fleet/v3");
    w.key("config")
        .beginObject(json::Layout::Block)
        .field("fleet_size", config.fleet.fleet_size)
        .field("fleet_seed", config.fleet.seed)
        .field("rounds", config.rounds)
        .field("devices_per_round", config.devices_per_round)
        .field("fault_rate", config.fault_rate)
        .field("random_networks", config.num_random_networks)
        .field("cadence_rounds", config.retrain.cadence_rounds)
        .field("holdout_fraction", config.canary.holdout_fraction)
        .field("max_r2_regression", config.canary.max_r2_regression)
        .field("workers", config.traffic.workers)
        .field("requests_per_round", config.traffic.requests_per_round)
        .endObject();

    w.field("holdout_devices", result.holdout_devices)
        .field("eval_devices", result.eval_devices)
        .key("signature")
        .array(result.signature);

    w.key("rounds").beginArray(json::Layout::Block);
    for (const RoundLog &r : result.rounds) {
        w.beginObject()
            .field("round", r.round)
            .field("cohort", r.cohort_devices)
            .field("sessions_attempted", r.sessions_attempted)
            .field("sessions_ok", r.sessions_ok)
            .field("appended", r.records_appended)
            .field("rejected", r.records_rejected)
            .field("quarantined_new", r.quarantined_new)
            .field("repo_size", r.repo_size)
            .field("campaign_sim_ms", r.campaign_sim_ms)
            .key("serve");
        if (!r.serve.active) {
            w.null().endObject();
            continue;
        }
        w.beginObject()
            .field("offered", r.serve.offered)
            .field("ok", r.serve.ok)
            .field("errors", r.serve.errors)
            .field("shed", r.serve.tier_shed)
            .field("sim_ms", r.serve.sim_duration_ms)
            .endObject()
            .endObject();
    }
    w.endArray();

    w.key("retrains").beginArray(json::Layout::Block);
    for (const RetrainLog &t : result.retrains) {
        w.beginObject()
            .field("ordinal", t.ordinal)
            .field("round", t.round)
            .field("sabotaged", t.sabotaged)
            .field("train_devices", t.train_devices)
            .field("missing_cells", t.missing_cells)
            .field("imputed_cells", t.imputed_cells)
            .key("candidate_r2");
        t.evaluated ? w.value(t.candidate_r2) : w.null();
        w.key("incumbent_r2");
        t.evaluated ? w.value(t.incumbent_r2) : w.null();
        w.field("version", t.version)
            .field("decision", canaryDecisionName(t.decision))
            .field("reason", t.reason)
            .endObject();
    }
    w.endArray();

    w.key("summary")
        .beginObject(json::Layout::Block)
        .field("publishes", result.publishes)
        .field("rollbacks", result.rollbacks)
        .field("skipped", result.skipped)
        .field("final_version", result.final_version)
        .key("registry_versions")
        .array(result.registry_versions)
        .field("repo_size", result.repo_size)
        .field("quarantined_devices", result.quarantined_devices)
        .field("served_total", result.served_total)
        .field("shed_total", result.shed_total)
        .field("sim_total_ms", result.sim_total_ms)
        .endObject()
        .endObject();
    out += '\n';
    return out;
}

} // namespace gcm::fleet
