/**
 * @file
 * gcm — command-line driver for the cost-model library.
 *
 *   gcm dataset --out repo.csv            export the 118x105 dataset
 *   gcm dataset --faults 0.2 ...          same, through a faulted
 *                                         campaign (sparse CSV)
 *   gcm train --data repo.csv --out m.txt train + serialize a model
 *   gcm predict --model m.txt --network <name> --signature a,b,c,...
 *   gcm chaos --rates 0,0.1,0.2,0.3       fault-rate sweep report
 *   gcm profile --network <name> --device <model-name>
 *   gcm serve --model m.txt                gcm-serve/v1 front end on
 *                                          stdin/stdout (or files)
 *   gcm loadgen --model m.txt --mix duplicate|unique
 *   gcm list-networks | gcm list-devices
 *
 * The standard suite/fleet are deterministic, so a dataset exported on
 * one machine trains to an identical model anywhere.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/chaos.hh"
#include "core/cost_model.hh"
#include "core/experiment_context.hh"
#include "core/imputation.hh"
#include "dnn/quantize.hh"
#include "dnn/zoo.hh"
#include "fleet/loop.hh"
#include "obs/obs.hh"
#include "search/search.hh"
#include "serve/frontend.hh"
#include "serve/loadgen.hh"
#include "serve/protocol.hh"
#include "serve/registry.hh"
#include "serve/service.hh"
#include "sim/profiler.hh"
#include "util/error.hh"
#include "util/parallel.hh"

using namespace gcm;

namespace
{

/** Parsed --key value flags, plus the keys a command has read. */
struct Flags
{
    std::map<std::string, std::string> values;
    mutable std::set<std::string> read;
};

/** Minimal --key value parser; bare flags get "1". */
Flags
parseFlags(int argc, char **argv, int start)
{
    Flags flags;
    for (int i = start; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            fatal("unexpected argument: ", key);
        key = key.substr(2);
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
            flags.values[key] = argv[++i];
        } else {
            flags.values[key] = "1";
        }
    }
    return flags;
}

std::string
flagOr(const Flags &flags, const std::string &key,
       const std::string &fallback)
{
    flags.read.insert(key);
    const auto it = flags.values.find(key);
    return it == flags.values.end() ? fallback : it->second;
}

/** A flag no command read is a typo or a removed option: say so. */
void
rejectUnreadFlags(const Flags &flags)
{
    for (const auto &[key, value] : flags.values) {
        if (flags.read.count(key) == 0)
            fatal("unknown flag --", key, " for this command");
    }
}

int
cmdDataset(const Flags &flags)
{
    const std::string out = flagOr(flags, "out", "gcm_dataset.csv");
    const double fault_rate =
        std::stod(flagOr(flags, "faults", "0"));
    const auto fault_seed = static_cast<std::uint64_t>(
        std::stoull(flagOr(flags, "fault-seed", "7021")));
    core::ExperimentConfig cfg;
    cfg.campaign.aggregator =
        sim::parseAggregator(flagOr(flags, "aggregator", "mean"));
    const auto ctx = core::ExperimentContext::build(cfg);

    std::ofstream os(out);
    if (!os)
        fatal("cannot open ", out, " for writing");
    if (fault_rate <= 0.0) {
        os << ctx.repo().toCsv();
        std::printf("wrote %zu measurements (%zu networks x %zu "
                    "devices) to %s\n",
                    ctx.repo().size(), ctx.numNetworks(),
                    ctx.fleet().size(), out.c_str());
        return 0;
    }

    // Re-run the campaign under the fault model; the export is then
    // the sparse repository a real flaky crowd would have produced.
    sim::CampaignConfig cc = cfg.campaign;
    cc.faults = sim::FaultParams::uniformRate(fault_rate);
    cc.fault_seed = fault_seed;
    const sim::CharacterizationCampaign campaign(
        ctx.fleet(), ctx.campaign().model(), cc);
    const sim::CampaignReport report =
        campaign.runResilient(ctx.suite());
    os << report.repo.toCsv();
    std::printf("wrote %zu of %zu cells to %s (fault rate %.2f)\n",
                report.repo.size(), report.expected_cells, out.c_str(),
                fault_rate);
    std::printf("  sessions %llu (ok %llu, retries %llu), crashes "
                "%llu, stragglers %llu, corrupt %llu, duplicates "
                "%llu\n",
                (unsigned long long)report.stats.sessions_attempted,
                (unsigned long long)report.stats.sessions_ok,
                (unsigned long long)report.stats.retries,
                (unsigned long long)report.stats.crashes,
                (unsigned long long)report.stats.stragglers,
                (unsigned long long)report.stats.corrupt_rejected,
                (unsigned long long)report.stats.duplicates);
    std::printf("  dropped cells %llu, quarantined devices %zu, "
                "dropouts %zu, simulated %.1f s\n",
                (unsigned long long)report.stats.dropped_cells,
                report.quarantined.size(), report.dropouts.size(),
                report.stats.simulated_ms / 1000.0);
    return 0;
}

int
cmdTrain(const Flags &flags)
{
    const std::string data = flagOr(flags, "data", "");
    const std::string out = flagOr(flags, "out", "gcm_model.txt");
    const std::string method = flagOr(flags, "method", "mis");
    const std::size_t size =
        static_cast<std::size_t>(std::stoul(flagOr(flags, "size", "10")));

    // Rebuild the deterministic suite and align it with the CSV rows.
    const auto ctx = core::ExperimentContext::build();
    sim::MeasurementRepository repo;
    if (data.empty()) {
        repo = ctx.repo();
        std::printf("no --data given; using the built-in campaign\n");
    } else {
        std::ifstream is(data);
        if (!is)
            fatal("cannot open ", data);
        std::stringstream ss;
        ss << is.rdbuf();
        repo = sim::MeasurementRepository::fromCsv(ss.str());
    }

    // Device ids present in the repository.
    std::vector<std::int32_t> device_ids;
    for (const auto &rec : repo.records()) {
        if (device_ids.empty() || rec.device_id != device_ids.back())
            device_ids.push_back(rec.device_id);
    }

    // A repository from a faulted campaign is sparse; impute the
    // missing cells so training still goes through.
    auto matrix = repo.sparseLatencyMatrix(device_ids,
                                           ctx.networkNames());
    const std::size_t missing =
        repo.missingCells(device_ids, ctx.networkNames());
    if (missing > 0) {
        const auto st = core::imputeLatencyMatrix(matrix);
        std::printf("sparse repository: imputed %zu of %zu cells "
                    "(%zu nearest-neighbour, %zu fleet-median)\n",
                    st.missing_cells, st.total_cells, st.nn_imputed,
                    st.median_imputed);
    }

    core::SignatureCostModel::Config cfg;
    cfg.selection.size = size;
    if (method == "mis")
        cfg.method = core::SignatureMethod::MutualInformation;
    else if (method == "sccs")
        cfg.method = core::SignatureMethod::SpearmanCorrelation;
    else if (method == "rs")
        cfg.method = core::SignatureMethod::RandomSampling;
    else
        fatal("unknown --method '", method, "' (mis|sccs|rs)");

    const auto model =
        core::SignatureCostModel::train(ctx.suite(), matrix, cfg);
    std::ofstream os(out);
    if (!os)
        fatal("cannot open ", out, " for writing");
    model.serialize(os);
    std::printf("trained on %zu devices; signature:", device_ids.size());
    for (const auto &name : model.signatureNames())
        std::printf(" %s", name.c_str());
    std::printf("\nmodel written to %s\n", out.c_str());
    return 0;
}

int
cmdPredict(const Flags &flags)
{
    const std::string model_path = flagOr(flags, "model", "");
    const std::string network = flagOr(flags, "network", "");
    const std::string signature = flagOr(flags, "signature", "");
    const bool allow_impute = !flagOr(flags, "impute", "").empty();
    if (model_path.empty() || network.empty() || signature.empty()) {
        fatal("predict needs --model, --network and --signature "
              "(comma-separated latencies in signature order)");
    }
    std::ifstream is(model_path);
    if (!is)
        fatal("cannot open ", model_path);
    const auto model = core::SignatureCostModel::deserialize(is);

    std::vector<double> sig;
    std::stringstream ss(signature);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty() || item == "nan" || item == "NaN") {
            sig.push_back(std::numeric_limits<double>::quiet_NaN());
        } else {
            sig.push_back(std::stod(item));
        }
    }

    bool imputed_any = false;
    for (double v : sig)
        imputed_any = imputed_any || std::isnan(v);
    if (imputed_any) {
        if (!allow_impute) {
            fatal("signature has missing (nan) entries; pass "
                  "--impute to fill them from the reference fleet");
        }
        // Reference matrix: the signature networks' clean latencies
        // across the standard fleet.
        const auto ctx = core::ExperimentContext::build();
        std::vector<std::vector<double>> reference(
            model.signatureNames().size(),
            std::vector<double>(ctx.fleet().size()));
        for (std::size_t k = 0; k < model.signatureNames().size();
             ++k) {
            const std::size_t n =
                ctx.networkIndex(model.signatureNames()[k]);
            for (std::size_t d = 0; d < ctx.fleet().size(); ++d)
                reference[k][d] = ctx.latencyMs(d, n);
        }
        const std::size_t filled =
            core::imputeSignatureLatencies(sig, reference);
        std::printf("imputed %zu missing signature entries\n", filled);
    }

    const dnn::Graph net = dnn::quantize(dnn::buildZooModel(network));
    std::printf("%s: predicted %.1f ms\n", network.c_str(),
                model.predictMs(net, sig));
    return 0;
}

int
cmdChaos(const Flags &flags)
{
    core::ChaosSweepConfig cfg;
    // Reduced scale by default: the sweep re-runs the campaign and
    // trains a model per fault rate.
    cfg.experiment.num_random_networks = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "networks", "12")));
    cfg.experiment.num_devices = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "devices", "24")));
    cfg.experiment.campaign.runs_per_network =
        static_cast<std::size_t>(
            std::stoul(flagOr(flags, "runs", "5")));
    cfg.experiment.campaign.aggregator =
        sim::parseAggregator(flagOr(flags, "aggregator", "mean"));
    cfg.fault_seed = static_cast<std::uint64_t>(
        std::stoull(flagOr(flags, "fault-seed", "7021")));
    cfg.gbt.n_estimators = 40;

    const std::string rates = flagOr(flags, "rates", "0,0.1,0.2,0.3");
    cfg.fault_rates.clear();
    std::stringstream ss(rates);
    std::string item;
    while (std::getline(ss, item, ','))
        cfg.fault_rates.push_back(std::stod(item));
    if (cfg.fault_rates.empty())
        fatal("chaos: --rates parsed to nothing");

    const auto points = core::runChaosSweep(cfg);
    std::printf("%6s %9s %8s %8s %6s %8s %8s %7s %7s\n", "rate",
                "sessions", "retries", "crashes", "drops", "missing",
                "imputed", "quar", "R2");
    for (const auto &pt : points) {
        std::printf("%6.2f %9llu %8llu %8llu %6llu %8zu %8zu %7zu "
                    "%7.4f\n",
                    pt.fault_rate,
                    (unsigned long long)pt.stats.sessions_attempted,
                    (unsigned long long)pt.stats.retries,
                    (unsigned long long)pt.stats.crashes,
                    (unsigned long long)pt.stats.dropped_cells,
                    pt.missing_cells, pt.imputation.missing_cells,
                    pt.quarantined_devices, pt.r2_clean_holdout);
    }

    const std::string out = flagOr(flags, "out", "");
    if (!out.empty()) {
        std::ofstream os(out);
        if (!os)
            fatal("cannot open ", out, " for writing");
        os << "fault_rate,sessions,retries,crashes,dropped_cells,"
              "missing_cells,imputed_cells,quarantined,r2\n";
        for (const auto &pt : points) {
            os << pt.fault_rate << ','
               << pt.stats.sessions_attempted << ','
               << pt.stats.retries << ',' << pt.stats.crashes << ','
               << pt.stats.dropped_cells << ',' << pt.missing_cells
               << ',' << pt.imputation.missing_cells << ','
               << pt.quarantined_devices << ','
               << pt.r2_clean_holdout << '\n';
        }
        std::printf("sweep written to %s\n", out.c_str());
    }
    return 0;
}

int
cmdProfile(const Flags &flags)
{
    const std::string network =
        flagOr(flags, "network", "mobilenet_v2_1.0");
    const std::string device_name = flagOr(flags, "device", "Mi-9");
    const dnn::Graph net = dnn::quantize(dnn::buildZooModel(network));
    const auto fleet = sim::DeviceDatabase::standard();
    const auto &device = fleet.byName(device_name);
    const sim::LatencyModel model;
    const auto profile = sim::profileGraph(model, net, device,
                                           fleet.chipsetOf(device));
    std::printf("%s\n", sim::renderProfile(profile, net).c_str());
    return 0;
}

/** Load --model (a gcm-cost-model v1 file) into a registry. */
void
publishModelOrDie(const Flags &flags,
                  serve::ModelRegistry &registry)
{
    const std::string model_path = flagOr(flags, "model", "");
    if (model_path.empty())
        fatal("--model FILE is required (train one with 'gcm train')");
    std::ifstream is(model_path);
    if (!is)
        fatal("cannot open ", model_path);
    registry.publish(serve::ModelSnapshot::fromStream(is));
}

/**
 * Device table for the standard fleet: each device's latencies on
 * the model's signature networks, from the clean reference campaign.
 */
serve::PredictionService::DeviceTable
buildDeviceTable(const core::SignatureCostModel &model)
{
    const auto ctx = core::ExperimentContext::build();
    serve::PredictionService::DeviceTable table;
    for (std::size_t d = 0; d < ctx.fleet().size(); ++d) {
        std::vector<double> sig;
        sig.reserve(model.signatureNames().size());
        for (const auto &name : model.signatureNames())
            sig.push_back(ctx.latencyMs(d, ctx.networkIndex(name)));
        table[ctx.fleet().devices()[d].model_name] = std::move(sig);
    }
    return table;
}

serve::ServiceConfig
serviceConfigFromFlags(const Flags &flags)
{
    serve::ServiceConfig cfg;
    cfg.cache_capacity = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "cache", "4096")));
    cfg.cache_shards = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "shards", "8")));
    return cfg;
}

serve::FrontEndConfig
frontEndConfigFromFlags(const Flags &flags)
{
    serve::FrontEndConfig cfg;
    cfg.workers = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "workers", "0")));
    cfg.batch_size = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "batch", "16")));
    cfg.queue_capacity = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "queue", "256")));
    cfg.service = serviceConfigFromFlags(flags);
    return cfg;
}

int
cmdServe(const Flags &flags)
{
    serve::ModelRegistry registry;
    publishModelOrDie(flags, registry);
    const auto active = registry.active();

    const std::string in_path = flagOr(flags, "in", "");
    const std::string out_path = flagOr(flags, "out", "");
    std::ifstream fin;
    std::ofstream fout;
    std::istream *in = &std::cin;
    std::ostream *out = &std::cout;
    if (!in_path.empty()) {
        fin.open(in_path);
        if (!fin)
            fatal("cannot open ", in_path);
        in = &fin;
    }
    if (!out_path.empty()) {
        fout.open(out_path);
        if (!fout)
            fatal("cannot open ", out_path, " for writing");
        out = &fout;
    }

    serve::ServerFrontEnd frontend(
        registry, buildDeviceTable(active.snapshot->costModel()),
        frontEndConfigFromFlags(flags));
    const double arrival_qps =
        std::stod(flagOr(flags, "arrival-qps", "0"));
    const std::size_t consumed =
        serve::runFrontEndLoop(frontend, *in, *out, arrival_qps);
    const auto st = frontend.cache().stats();
    std::fprintf(stderr,
                 "served %zu requests on %zu worker(s) "
                 "(model version %llu)\n"
                 "cache: %llu hits, %llu misses, %llu evictions, "
                 "%llu coalesced (hit rate %.1f%%)\n",
                 consumed, frontend.workers(),
                 (unsigned long long)active.version,
                 (unsigned long long)st.hits,
                 (unsigned long long)st.misses,
                 (unsigned long long)st.evictions,
                 (unsigned long long)st.coalesced,
                 st.hitRate() * 100.0);
    return 0;
}

int
cmdLoadgen(const Flags &flags)
{
    serve::ModelRegistry registry;
    publishModelOrDie(flags, registry);
    const auto active = registry.active();

    serve::LoadGenConfig cfg;
    cfg.requests = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "requests", "2000")));
    cfg.seed = static_cast<std::uint64_t>(
        std::stoull(flagOr(flags, "seed", "42")));
    cfg.mix = serve::parseLoadMix(flagOr(flags, "mix", "duplicate"));
    cfg.pool_size = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "pool", "16")));
    cfg.bulk_fraction = std::stod(flagOr(flags, "bulk-fraction", "0"));

    const std::string out_path = flagOr(flags, "out", "");
    std::ofstream fout;
    if (!out_path.empty()) {
        fout.open(out_path);
        if (!fout)
            fatal("cannot open ", out_path, " for writing");
    }

    // Poisson arrivals on the simulated clock at --offered-qps
    // (default 2x the front end's capacity).
    serve::ServerFrontEnd frontend(
        registry, buildDeviceTable(active.snapshot->costModel()),
        frontEndConfigFromFlags(flags));
    const std::string offered = flagOr(flags, "offered-qps", "");
    cfg.offered_qps = offered.empty() ? 2.0 * frontend.capacityQps()
                                      : std::stod(offered);
    const serve::FrontEndReport report = serve::runOpenLoadGen(
        frontend, cfg, out_path.empty() ? nullptr : &fout);
    std::printf("open-loop: offered %.1f req/s (%.2fx capacity %.1f "
                "req/s)\n%s\n",
                cfg.offered_qps, cfg.offered_qps / frontend.capacityQps(),
                frontend.capacityQps(), report.summary().c_str());
    if (!out_path.empty())
        std::printf("responses written to %s\n", out_path.c_str());
    return 0;
}

/** Print a JSON report on stdout, or write it to --out and say so. */
void
emitReport(const Flags &flags, const std::string &report,
           const char *schema)
{
    const std::string out_path = flagOr(flags, "out", "");
    if (out_path.empty()) {
        std::fputs(report.c_str(), stdout);
        return;
    }
    std::ofstream fout(out_path);
    if (!fout)
        fatal("cannot open ", out_path, " for writing");
    fout << report;
    std::printf("%s report written to %s\n", schema, out_path.c_str());
}

int
cmdSearch(const Flags &flags)
{
    serve::ModelRegistry registry;
    publishModelOrDie(flags, registry);
    serve::PredictionService service(
        registry,
        buildDeviceTable(registry.active().snapshot->costModel()),
        serviceConfigFromFlags(flags));

    search::SearchConfig cfg;
    cfg.budget_ms = std::stod(flagOr(flags, "budget-ms", "0"));
    const std::string devices =
        flagOr(flags, "devices", flagOr(flags, "device", ""));
    if (devices.empty())
        fatal("--device NAME (or --devices a,b,...) is required");
    std::stringstream ss(devices);
    std::string item;
    while (std::getline(ss, item, ','))
        cfg.devices.push_back(item);
    cfg.seed = static_cast<std::uint64_t>(
        std::stoull(flagOr(flags, "seed", "1")));
    cfg.population = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "population", "32")));
    cfg.generations = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "generations", "8")));
    cfg.elite = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "elite", "4")));

    search::ArchitectureSearch engine(service, cfg);
    const search::SearchResult result = engine.run();
    const std::string report = search::renderSearchReport(cfg, result);

    emitReport(flags, report, "gcm-search/v1");
    std::fprintf(stderr,
                 "search: %llu candidates evaluated, %llu rejected, "
                 "front size %zu, cache effective hit rate %.3f\n",
                 static_cast<unsigned long long>(
                     result.candidates_evaluated),
                 static_cast<unsigned long long>(
                     result.candidates_rejected),
                 result.front.size(), result.cache.effectiveHitRate());
    return 0;
}

int
cmdFleet(const Flags &flags)
{
    fleet::FleetLoopConfig cfg;
    cfg.fleet.fleet_size = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "fleet-size", "10000")));
    cfg.fleet.seed = static_cast<std::uint64_t>(
        std::stoull(flagOr(flags, "fleet-seed", "9000")));
    cfg.rounds = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "rounds", "6")));
    cfg.devices_per_round = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "cohort", "24")));
    cfg.fault_rate = std::stod(flagOr(flags, "faults", "0.1"));
    cfg.num_random_networks = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "networks", "8")));
    cfg.campaign.runs_per_network = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "runs", "5")));
    cfg.retrain.cadence_rounds = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "cadence", "2")));
    cfg.retrain.gbt.n_estimators = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "estimators", "60")));
    cfg.canary.holdout_fraction =
        std::stod(flagOr(flags, "holdout", "0.2"));
    cfg.canary.max_r2_regression =
        std::stod(flagOr(flags, "max-regression", "0.01"));
    cfg.traffic.requests_per_round = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "requests", "64")));
    cfg.traffic.workers = static_cast<std::size_t>(
        std::stoul(flagOr(flags, "workers", "2")));
    // Injected-regression drill: corrupt these retrain ordinals so
    // the canary gate's rollback path can be demonstrated on demand.
    const std::string sabotage = flagOr(flags, "sabotage", "");
    if (!sabotage.empty()) {
        std::stringstream ss(sabotage);
        std::string item;
        while (std::getline(ss, item, ','))
            cfg.sabotage_retrains.push_back(
                static_cast<std::size_t>(std::stoul(item)));
    }

    std::string report;
    const fleet::FleetResult result =
        fleet::runFleetLoop(cfg, &report);

    emitReport(flags, report, "gcm-fleet/v3");
    std::fprintf(
        stderr,
        "fleet: %zu rounds, %zu publishes, %zu rollbacks, %zu "
        "skipped; active v%llu; repo %zu records (%zu devices "
        "quarantined); served %zu (shed %zu)\n",
        result.rounds.size(), result.publishes, result.rollbacks,
        result.skipped,
        static_cast<unsigned long long>(result.final_version),
        result.repo_size, result.quarantined_devices,
        result.served_total, result.shed_total);
    return 0;
}

int
cmdListNetworks()
{
    const auto ctx = core::ExperimentContext::build();
    for (const auto &name : ctx.networkNames())
        std::printf("%s\n", name.c_str());
    return 0;
}

int
cmdListDevices()
{
    const auto fleet = sim::DeviceDatabase::standard();
    for (const auto &d : fleet.devices()) {
        std::printf("%-28s %-16s %-14s %.2f GHz %3.0f GB\n",
                    d.model_name.c_str(),
                    fleet.chipsetOf(d).name.c_str(),
                    fleet.coreOf(d).name.c_str(), d.freq_ghz, d.ram_gb);
    }
    return 0;
}

void
usage()
{
    std::printf(
        "usage: gcm <command> [flags]\n"
        "  dataset  --out FILE                    export dataset CSV\n"
        "           [--faults RATE] [--fault-seed N]  run the campaign\n"
        "                under a fault model; the CSV is then sparse\n"
        "           [--aggregator mean|median|trimmed|mad]\n"
        "  train    [--data FILE] --out FILE      train + save model\n"
        "           [--method mis|sccs|rs] [--size N]\n"
        "           sparse CSVs are imputed automatically\n"
        "  predict  --model FILE --network NAME --signature a,b,...\n"
        "           [--impute]   allow nan entries in --signature,\n"
        "                filled from the reference fleet\n"
        "  chaos    [--rates r1,r2,...] [--devices N] [--networks N]\n"
        "           [--runs N] [--fault-seed N] [--out FILE]\n"
        "                fault-rate sweep: campaign recovery counters\n"
        "                and clean-holdout R^2 per rate\n"
        "  profile  [--network NAME] [--device NAME]\n"
        "  serve    --model FILE                  gcm-serve/v1 front\n"
        "           end: one JSON request per line on stdin, one JSON\n"
        "           response per line on stdout, in request order\n"
        "           (see DESIGN.md §10, §14)\n"
        "           [--in FILE] [--out FILE]      file mode\n"
        "           [--workers N]  worker threads (default: --threads)\n"
        "           [--batch N] [--queue N]       micro-batch size and\n"
        "                per-priority queue capacity (default 16/256);\n"
        "                past it, requests shed with a structured\n"
        "                overloaded error\n"
        "           [--cache N] [--shards N]      prediction cache\n"
        "                capacity and shard count (default 4096/8)\n"
        "           [--arrival-qps X]  simulated arrival rate\n"
        "                (default: the front end's capacity)\n"
        "  loadgen  --model FILE                  seeded open-loop\n"
        "           Poisson load on the simulated clock against the\n"
        "           serve front end; reports goodput, shed-rate and\n"
        "           queue peaks\n"
        "           [--requests N] [--seed N] [--mix duplicate|unique]\n"
        "           [--pool N] [--bulk-fraction X]\n"
        "           [--offered-qps X]  offered load (default 2x\n"
        "                capacity)\n"
        "           [--out FILE]  write the response stream (byte-\n"
        "                identical across runs and thread counts)\n"
        "           [--workers N] [--batch N] [--queue N] [--cache N]\n"
        "           [--shards N]  as for serve\n"
        "  search   --model FILE --budget-ms X    latency-constrained\n"
        "           --device NAME | --devices a,b,...  architecture\n"
        "                search over the generator space; emits the\n"
        "                gcm-search/v1 Pareto front (DESIGN.md §13),\n"
        "                byte-identical at any --threads\n"
        "           [--seed N] [--population N] [--generations N]\n"
        "           [--elite N] [--cache N] [--shards N] [--out FILE]\n"
        "  fleet    closed loop: streaming campaign -> incremental\n"
        "           retrain -> canaried hot-swap over a synthesized\n"
        "           fleet, on the simulated clock (DESIGN.md §15);\n"
        "           emits the gcm-fleet/v3 report, byte-identical\n"
        "           at any --threads\n"
        "           [--fleet-size N] [--fleet-seed N] [--rounds N]\n"
        "           [--cohort N]     devices measured per round\n"
        "           [--faults RATE] [--networks N] [--runs N]\n"
        "           [--cadence N]    rounds between retrains\n"
        "           [--estimators N] [--holdout X]\n"
        "           [--max-regression X]  canary R^2 tolerance\n"
        "           [--requests N] [--workers N] [--out FILE]\n"
        "           [--sabotage i,j,...]  corrupt these retrain\n"
        "                ordinals (canary rollback drill)\n"
        "  list-networks | list-devices\n"
        "global flags:\n"
        "  --threads N   worker threads (default: GCM_THREADS env,\n"
        "                else hardware concurrency); results are\n"
        "                bit-identical at any thread count\n"
        "  a flag the command does not read is an error\n"
        "  --trace-out FILE  enable observability and write the\n"
        "                gcm-perf-report/v1 JSON (span tree, pool\n"
        "                counters, latency histograms) after the\n"
        "                command; GCM_OBS=1 enables collection\n"
        "                alone. Outputs stay bit-identical either\n"
        "                way.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string cmd = argv[1];
    try {
        const auto flags = parseFlags(argc, argv, 2);
        const std::string threads = flagOr(flags, "threads", "");
        if (!threads.empty())
            setThreads(static_cast<std::size_t>(std::stoul(threads)));
        const std::string trace_out = flagOr(flags, "trace-out", "");
        if (!trace_out.empty())
            obs::setEnabled(true);

        int rc = 1;
        if (cmd == "dataset")
            rc = cmdDataset(flags);
        else if (cmd == "train")
            rc = cmdTrain(flags);
        else if (cmd == "predict")
            rc = cmdPredict(flags);
        else if (cmd == "chaos")
            rc = cmdChaos(flags);
        else if (cmd == "profile")
            rc = cmdProfile(flags);
        else if (cmd == "serve")
            rc = cmdServe(flags);
        else if (cmd == "loadgen")
            rc = cmdLoadgen(flags);
        else if (cmd == "search")
            rc = cmdSearch(flags);
        else if (cmd == "fleet")
            rc = cmdFleet(flags);
        else if (cmd == "list-networks")
            rc = cmdListNetworks();
        else if (cmd == "list-devices")
            rc = cmdListDevices();
        else {
            usage();
            return 1;
        }
        rejectUnreadFlags(flags);

        if (!trace_out.empty()) {
            obs::writeReport(trace_out);
            std::fprintf(stderr, "perf report written to %s\n",
                         trace_out.c_str());
        } else if (obs::enabled()) {
            std::fprintf(stderr,
                         "observability on (GCM_OBS); pass "
                         "--trace-out FILE to write the perf "
                         "report\n");
        }
        return rc;
    } catch (const GcmError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
