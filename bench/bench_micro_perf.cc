/**
 * @file
 * Google-benchmark microbenchmarks of the library's hot paths: GBT
 * training/prediction, the latency simulator, the network encoder,
 * signature selection and the EDA kernels.
 */

#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.hh"
#include "core/experiment_context.hh"
#include "core/net_encoder.hh"
#include "core/signature.hh"
#include "dnn/quantize.hh"
#include "dnn/zoo.hh"
#include "fleet/loop.hh"
#include "ml/flat_ensemble.hh"
#include "ml/gbt.hh"
#include "search/search.hh"
#include "serve/frontend.hh"
#include "serve/registry.hh"
#include "serve/service.hh"
#include "sim/campaign.hh"
#include "stats/correlation.hh"
#include "stats/kmeans.hh"
#include "stats/mutual_info.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

using namespace gcm;

namespace
{

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
            if (f < 8)
                y += (f + 1) * row[f];
        }
        ds.addRow(row, y + 0.1 * rng.normal());
    }
    return ds;
}

const dnn::Graph &
v2Int8()
{
    static const dnn::Graph g =
        dnn::quantize(dnn::buildZooModel("mobilenet_v2_1.0"));
    return g;
}

/** Synthetic latency matrix (networks x devices). */
std::vector<std::vector<double>>
latencyMatrix(std::size_t nets, std::size_t devices, std::uint64_t seed)
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

} // namespace

static void
BM_GbtTrain(benchmark::State &state)
{
    const auto ds = syntheticDataset(
        static_cast<std::size_t>(state.range(0)), 64, 1);
    ml::GbtParams p;
    p.n_estimators = 50;
    for (auto _ : state) {
        ml::GradientBoostedTrees model(p);
        model.train(ds);
        benchmark::DoNotOptimize(model.numTrees());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GbtTrain)->Arg(1000)->Arg(4000);

static void
BM_GbtPredict(benchmark::State &state)
{
    const auto ds = syntheticDataset(2000, 64, 2);
    ml::GradientBoostedTrees model;
    model.train(ds);
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.predict(ds));
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_GbtPredict);

/**
 * Compiled-inference head-to-head: the same trained booster predicting
 * the same 2000x64 matrix through the node walker (predictRow per
 * row) versus the flat SoA engine (one blocked predictBatch). Both
 * are bit-identical by the ml/flat_ensemble.hh contract, so the gap
 * is pure representation + traversal + parallelism.
 */
static void
BM_NodePredict(benchmark::State &state)
{
    const auto ds = syntheticDataset(2000, 64, 2);
    ml::GradientBoostedTrees model;
    model.train(ds);
    for (auto _ : state) {
        double acc = 0.0;
        for (std::size_t i = 0; i < ds.numRows(); ++i)
            acc += model.predictRow(ds.row(i));
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_NodePredict);

static void
BM_FlatPredict(benchmark::State &state)
{
    const auto ds = syntheticDataset(2000, 64, 2);
    ml::GradientBoostedTrees model;
    model.train(ds);
    const ml::FlatEnsemble flat = model.compile();
    setThreads(static_cast<std::size_t>(state.range(0)));
    std::vector<double> out(ds.numRows());
    for (auto _ : state) {
        flat.predictBatch(ds.row(0), ds.numRows(), ds.numFeatures(),
                          out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 2000);
    setThreads(1);
}
BENCHMARK(BM_FlatPredict)->Arg(1)->Arg(8);

/**
 * Thread-scaling variants. Arg is the worker-thread count handed to
 * setThreads(); results stay bit-identical across counts, so these
 * measure pure wall-clock scaling of the parallel execution layer.
 */
static void
BM_GbtTrainMT(benchmark::State &state)
{
    setThreads(static_cast<std::size_t>(state.range(0)));
    const auto ds = syntheticDataset(4000, 64, 1);
    ml::GbtParams p;
    p.n_estimators = 50;
    for (auto _ : state) {
        ml::GradientBoostedTrees model(p);
        model.train(ds);
        benchmark::DoNotOptimize(model.numTrees());
    }
    state.SetItemsProcessed(state.iterations() * 4000);
    setThreads(1);
}
BENCHMARK(BM_GbtTrainMT)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

static void
BM_GbtPredictMT(benchmark::State &state)
{
    const auto ds = syntheticDataset(2000, 64, 2);
    ml::GradientBoostedTrees model;
    model.train(ds);
    setThreads(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.predict(ds));
    }
    state.SetItemsProcessed(state.iterations() * 2000);
    setThreads(1);
}
BENCHMARK(BM_GbtPredictMT)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

static void
BM_CampaignRunMT(benchmark::State &state)
{
    setThreads(static_cast<std::size_t>(state.range(0)));
    const auto fleet = sim::DeviceDatabase::standard(2020, 16);
    const sim::LatencyModel model;
    sim::CampaignConfig config;
    config.runs_per_network = 10;
    std::vector<dnn::Graph> suite;
    suite.push_back(dnn::buildZooModel("mobilenet_v1_1.0"));
    suite.push_back(dnn::buildZooModel("mobilenet_v2_1.0"));
    suite.push_back(dnn::buildZooModel("squeezenet_1.0"));
    const sim::CharacterizationCampaign campaign(fleet, model, config);
    for (auto _ : state) {
        benchmark::DoNotOptimize(campaign.run(suite).size());
    }
    state.SetItemsProcessed(state.iterations() * 16 * 3);
    setThreads(1);
}
BENCHMARK(BM_CampaignRunMT)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * Faulted campaign at increasing fault rates (arg = rate in percent).
 * Retry/backoff bookkeeping runs on the simulated clock, so the
 * wall-clock overhead over the fault-free campaign must stay bounded
 * by the extra sessions actually attempted — compare against the
 * rate-0 row.
 */
static void
BM_CampaignFaulted(benchmark::State &state)
{
    const auto fleet = sim::DeviceDatabase::standard(2020, 16);
    const sim::LatencyModel model;
    sim::CampaignConfig config;
    config.runs_per_network = 10;
    config.faults = sim::FaultParams::uniformRate(
        static_cast<double>(state.range(0)) / 100.0);
    std::vector<dnn::Graph> suite;
    suite.push_back(dnn::buildZooModel("mobilenet_v1_1.0"));
    suite.push_back(dnn::buildZooModel("mobilenet_v2_1.0"));
    suite.push_back(dnn::buildZooModel("squeezenet_1.0"));
    const sim::CharacterizationCampaign campaign(fleet, model, config);
    std::uint64_t sessions = 0;
    for (auto _ : state) {
        const auto report = campaign.runResilient(suite);
        benchmark::DoNotOptimize(report.repo.size());
        sessions += report.stats.sessions_attempted;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(sessions));
    state.counters["sessions"] = benchmark::Counter(
        static_cast<double>(sessions) / state.iterations());
}
BENCHMARK(BM_CampaignFaulted)
    ->Arg(0)
    ->Arg(10)
    ->Arg(20)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);

static void
BM_SimulatorGraphLatency(benchmark::State &state)
{
    const auto fleet = sim::DeviceDatabase::standard();
    const sim::LatencyModel model;
    const auto &device = fleet.device(0);
    const auto &chipset = fleet.chipsetOf(device);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.graphLatencyMs(v2Int8(), device, chipset));
    }
}
BENCHMARK(BM_SimulatorGraphLatency);

static void
BM_DeviceMeasure30Runs(benchmark::State &state)
{
    const auto fleet = sim::DeviceDatabase::standard();
    const sim::LatencyModel model;
    const auto &device = fleet.device(0);
    const auto &chipset = fleet.chipsetOf(device);
    sim::DeviceRuntime runtime(device, chipset, model, 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(runtime.measure(v2Int8()).mean_ms);
    }
}
BENCHMARK(BM_DeviceMeasure30Runs);

static void
BM_QuantizePass(benchmark::State &state)
{
    const auto g = dnn::buildZooModel("mobilenet_v3_large");
    for (auto _ : state) {
        benchmark::DoNotOptimize(dnn::quantize(g).numNodes());
    }
}
BENCHMARK(BM_QuantizePass);

static void
BM_NetworkEncode(benchmark::State &state)
{
    const core::NetworkEncoder enc(130);
    for (auto _ : state) {
        benchmark::DoNotOptimize(enc.encode(v2Int8()));
    }
}
BENCHMARK(BM_NetworkEncode);

static void
BM_SpearmanMatrix118(benchmark::State &state)
{
    const auto m = latencyMatrix(118, 73, 3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::spearmanMatrix(m));
    }
}
BENCHMARK(BM_SpearmanMatrix118);

static void
BM_MisSelection(benchmark::State &state)
{
    const auto m = latencyMatrix(118, 73, 4);
    core::SignatureConfig cfg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::selectMisSignature(m, 10, cfg));
    }
}
BENCHMARK(BM_MisSelection)->Unit(benchmark::kMillisecond);

static void
BM_SccsSelection(benchmark::State &state)
{
    const auto m = latencyMatrix(118, 73, 5);
    core::SignatureConfig cfg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::selectSccsSignature(m, 10, cfg));
    }
}
BENCHMARK(BM_SccsSelection)->Unit(benchmark::kMillisecond);

namespace
{

/**
 * Registry with one published cost model (reduced training scale;
 * production-sized 200-tree booster so the serve benchmarks measure
 * a realistic per-request compute load).
 */
const serve::ModelRegistry &
serveRegistry()
{
    static const serve::ModelRegistry *registry = [] {
        core::ExperimentConfig cfg;
        cfg.num_random_networks = 12;
        cfg.num_devices = 24;
        cfg.campaign.runs_per_network = 5;
        const auto ctx = core::ExperimentContext::build(cfg);
        std::vector<std::size_t> devices(ctx.fleet().size());
        for (std::size_t i = 0; i < devices.size(); ++i)
            devices[i] = i;
        core::SignatureCostModel::Config mcfg;
        mcfg.gbt.n_estimators = 200;
        const auto model = core::SignatureCostModel::train(
            ctx.suite(), ctx.latencyMatrix(devices), mcfg);
        std::stringstream ss;
        model.serialize(ss);
        auto *r = new serve::ModelRegistry;
        r->publish(serve::ModelSnapshot::fromStream(ss));
        return r;
    }();
    return *registry;
}

/**
 * A cold batch: `n` requests over four zoo networks with distinct
 * per-request signatures, so every key is unique and (with the cache
 * disabled) every request runs the full compute path.
 */
std::vector<serve::ServeRequest>
serveBatch(std::size_t n)
{
    const auto &registry = serveRegistry();
    const std::size_t width = registry.active()
                                  .snapshot->costModel()
                                  .signatureNames()
                                  .size();
    static const char *kNetworks[] = {
        "mobilenet_v2_1.0",
        "mobilenet_v1_1.0",
        "squeezenet_1.1",
        "mnasnet_a1",
    };
    std::vector<serve::ServeRequest> batch(n);
    for (std::size_t i = 0; i < n; ++i) {
        serve::ServeRequest &req = batch[i];
        req.id = "bench-" + std::to_string(i);
        req.network = kNetworks[i % 4];
        for (std::size_t k = 0; k < width; ++k) {
            req.signature.push_back(
                5.0 + static_cast<double>(k)
                + 0.001 * static_cast<double>(i));
        }
        req.has_signature = true;
    }
    return batch;
}

} // namespace

/**
 * Cold path: cache disabled and every key unique, so each of the 256
 * requests per batch runs resolution + row build + compiled predict.
 * items/s is requests per second.
 */
static void
BM_ServePredict(benchmark::State &state)
{
    serve::ServiceConfig cfg;
    cfg.cache_capacity = 0;
    serve::PredictionService service(serveRegistry(), {}, cfg);
    const auto batch = serveBatch(256);
    for (auto _ : state) {
        benchmark::DoNotOptimize(service.processBatch(batch).size());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_ServePredict);

/** Warm path: every request after the first batch is a cache hit. */
static void
BM_ServeCacheHit(benchmark::State &state)
{
    serve::PredictionService service(serveRegistry(), {}, {});
    const auto batch = serveBatch(256);
    (void)service.processBatch(batch); // warm the cache
    for (auto _ : state) {
        benchmark::DoNotOptimize(service.processBatch(batch).size());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_ServeCacheHit);

/**
 * Front end at 2x capacity: plan (DES over 256 arrivals) + parallel
 * execute on 2 workers, admitting what fits the queue and shedding
 * the rest — the per-request cost of overload handling itself.
 * items/s is arrivals per second.
 */
static void
BM_ServeOverload(benchmark::State &state)
{
    serve::FrontEndConfig cfg;
    cfg.workers = 2;
    serve::ServerFrontEnd frontend(serveRegistry(), {}, cfg);

    // Raw-signature request lines (the registry has no device table),
    // stamped at twice the front end's sustainable rate.
    const auto batch = serveBatch(256);
    const double gap_ms = 1000.0 / (2.0 * frontend.capacityQps());
    std::vector<serve::Arrival> arrivals;
    arrivals.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        std::string line = "{\"id\": \"" + batch[i].id
                           + "\", \"network\": \"" + batch[i].network
                           + "\", \"signature\": [";
        for (std::size_t k = 0; k < batch[i].signature.size(); ++k) {
            if (k)
                line += ", ";
            line += std::to_string(batch[i].signature[k]);
        }
        line += "]}";
        arrivals.push_back(
            {static_cast<double>(i) * gap_ms, std::move(line)});
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            frontend.run(arrivals, nullptr).served());
    }
    state.SetItemsProcessed(
        state.iterations()
        * static_cast<std::int64_t>(arrivals.size()));
}
BENCHMARK(BM_ServeOverload);

/**
 * End-to-end architecture search: population 16 x 3 generations over
 * two synthetic devices, every candidate priced through the serving
 * stack (fresh service per iteration, so generation-0 misses and
 * elite re-pricing hits are both in the loop). items/s is candidate
 * evaluations per second.
 */
static void
BM_Search(benchmark::State &state)
{
    const auto &registry = serveRegistry();
    const std::size_t width = registry.active()
                                  .snapshot->costModel()
                                  .signatureNames()
                                  .size();
    serve::PredictionService::DeviceTable table;
    for (std::size_t d = 0; d < 2; ++d) {
        std::vector<double> sig;
        for (std::size_t k = 0; k < width; ++k) {
            sig.push_back(5.0 + static_cast<double>(k)
                          + 0.5 * static_cast<double>(d));
        }
        table["bench-dev-" + std::to_string(d)] = std::move(sig);
    }
    search::SearchConfig cfg;
    cfg.budget_ms = 50.0;
    cfg.devices = {"bench-dev-0", "bench-dev-1"};
    cfg.seed = 7;
    cfg.population = 16;
    cfg.generations = 3;
    cfg.elite = 4;
    std::uint64_t evaluated = 0;
    for (auto _ : state) {
        serve::PredictionService service(registry, table);
        search::ArchitectureSearch engine(service, cfg);
        const search::SearchResult result = engine.run();
        evaluated += result.candidates_evaluated;
        benchmark::DoNotOptimize(result.front.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(evaluated));
    state.SetLabel("pop 16 x 3 gens x 2 devices");
}
BENCHMARK(BM_Search)->Unit(benchmark::kMillisecond);

/**
 * Fleet closed loop end to end: streaming campaign rounds feeding the
 * measurement repository, two cadenced retrains through the canary
 * gate, and live front-end traffic between rounds — the steady-state
 * cost of one control-loop pass at CI scale. items/s is rounds per
 * second.
 */
static void
BM_FleetLoop(benchmark::State &state)
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
    for (auto _ : state) {
        const fleet::FleetResult result = fleet::runFleetLoop(cfg);
        benchmark::DoNotOptimize(result.served_total);
    }
    state.SetItemsProcessed(
        state.iterations() * static_cast<std::int64_t>(cfg.rounds));
    state.SetLabel("4 rounds, 2 retrains, live serving");
}
BENCHMARK(BM_FleetLoop)->Unit(benchmark::kMillisecond);

static void
BM_KMeansDevices(benchmark::State &state)
{
    const auto nets = latencyMatrix(105, 118, 6); // device vectors
    stats::KMeansConfig cfg;
    cfg.k = 3;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::kMeans(nets, cfg).inertia);
    }
    state.SetLabel("105 devices x 118 dims");
}
BENCHMARK(BM_KMeansDevices)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
