/**
 * @file
 * serve-hot, serve-cold, serve-unseen: a closed loop of batches of
 * gcm-serve/v1 lines, each batch run through tryParseRequest,
 * PredictionService::processBatch and renderResponse at 1 thread. The
 * model is trained the way `gcm train` trains it (all devices, default
 * Config), then loaded back through ModelSnapshot::fromStream and
 * ModelRegistry::publish. inputs.cc generates the request streams.
 */

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>

#include "bench.hh"
#include "core/experiment_context.hh"
#include "dnn/fingerprint.hh"
#include "dnn/quantize.hh"
#include "dnn/serialize.hh"
#include "dnn/zoo.hh"
#include "ml/metrics.hh"
#include "serve/protocol.hh"
#include "serve/registry.hh"
#include "sim/repository.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace perfbench
{

namespace
{

namespace obs = gcm::obs;
using gcm::core::ExperimentContext;
using gcm::serve::ModelRegistry;
using gcm::serve::PredictionService;
using gcm::serve::ServeRequest;
using gcm::serve::ServeResponse;

/** Lines re-served and compared bit for bit with the reference. */
constexpr std::size_t kReferenceSample = 64;
/** Passes over the distinct graph texts in the traced replay. */
constexpr std::size_t kReplayPasses = 4;

/** r2 floor of the served model over the zoo x fleet (about 0.92). */
constexpr double kZooR2Floor = 0.85;

/**
 * r2 floor of a workload's own distinct requests. serve-cold's jittered
 * signatures are predicted about as well as the fleet's (about 0.91).
 * Unseen generated networks are predicted far less accurately (about
 * 0.65), so their floor only rules out a broken path. serve-hot's 16
 * pairs are too few for any floor (their R^2 ranges from 0.5 to 0.99).
 */
double
requestsR2Floor(Workload w)
{
    return w == Workload::ServeUnseen ? 0.0 : 0.8;
}

/** Each device's latencies on the model's signature networks. */
PredictionService::DeviceTable
deviceTable(const ExperimentContext &ctx,
            const std::vector<std::string> &signature_names)
{
    PredictionService::DeviceTable table;
    for (std::size_t d = 0; d < ctx.fleet().size(); ++d) {
        std::vector<double> sig;
        for (const auto &name : signature_names)
            sig.push_back(ctx.latencyMs(d, ctx.networkIndex(name)));
        table[ctx.fleet().devices()[d].model_name] = std::move(sig);
    }
    return table;
}

/** Reused per-batch buffers. */
struct Scratch
{
    std::vector<ServeRequest> requests;
    std::vector<ServeResponse> responses;
    std::vector<std::string> rendered;
    std::uint64_t failed = 0;
};

/** Serve the `n` lines starting at `lines`: parse, process, render. */
std::size_t
serveBatch(PredictionService &service, const std::string *lines,
           std::size_t n, Scratch &s)
{
    s.requests.resize(n);
    s.rendered.resize(n);
    {
        const obs::TraceSpan span("protocol.parse");
        for (std::size_t i = 0; i < n; ++i) {
            s.requests[i] = ServeRequest{};
            if (!gcm::serve::tryParseRequest(lines[i], s.requests[i])
                     .empty())
                ++s.failed;
        }
    }
    {
        const obs::TraceSpan span("service.batch");
        s.responses = service.processBatch(s.requests);
    }
    {
        const obs::TraceSpan span("protocol.render");
        for (std::size_t i = 0; i < n; ++i)
            s.rendered[i] = gcm::serve::renderResponse(s.responses[i]);
    }
    for (const auto &r : s.responses)
        s.failed += r.ok ? 0 : 1;
    return n;
}

/** The deployment graph a query asks about. */
gcm::dnn::Graph
queryGraph(const Query &q, const ServeInputs &in)
{
    return gcm::dnn::quantize(
        q.graph >= 0 ? in.graphs[static_cast<std::size_t>(q.graph)]
                     : gcm::dnn::buildZooModel(q.network));
}

/**
 * Measured latency of every query: the campaign's repository for zoo
 * networks (on the fleet device whose signature the query carries),
 * a fresh simulated measurement for unseen graphs.
 */
std::vector<double>
groundTruth(const ExperimentContext &ctx, const ServeInputs &in)
{
    std::map<std::string, std::size_t> device_index;
    for (std::size_t d = 0; d < ctx.fleet().size(); ++d)
        device_index[ctx.fleet().devices()[d].model_name] = d;
    gcm::sim::MeasurementRepository repo;
    std::vector<double> truth;
    for (const Query &q : in.queries) {
        const std::size_t d = device_index.at(q.device);
        if (q.graph < 0) {
            truth.push_back(ctx.latencyMs(d, ctx.networkIndex(q.network)));
            continue;
        }
        const gcm::dnn::Graph g = queryGraph(q, in);
        const auto &device = ctx.fleet().device(d);
        if (!repo.has(device.id, g.name()))
            ctx.campaign().measureOnDevice(g, device, repo);
        truth.push_back(repo.latencyMs(device.id, g.name()));
    }
    return truth;
}

/** Per-call cost of each graph-layer step over the distinct texts. */
void
replayGraphs(const ServeInputs &in,
             const gcm::core::SignatureCostModel &model, Report &report)
{
    double parse = 0, quantize = 0, fingerprint = 0, encode = 0;
    double bytes = 0;
    for (std::size_t pass = 0; pass < kReplayPasses; ++pass) {
        for (const auto &text : in.texts) {
            const auto t0 = Clock::now();
            const gcm::dnn::Graph g = gcm::dnn::graphFromText(text);
            const auto t1 = Clock::now();
            const gcm::dnn::Graph g8 = gcm::dnn::quantize(g);
            const auto t2 = Clock::now();
            gcm::dnn::graphFingerprint(g8);
            const auto t3 = Clock::now();
            model.encodeNetwork(g8);
            const auto t4 = Clock::now();
            const auto us = [](Clock::time_point a, Clock::time_point b) {
                return std::chrono::duration<double, std::micro>(b - a)
                    .count();
            };
            parse += us(t0, t1);
            quantize += us(t1, t2);
            fingerprint += us(t2, t3);
            encode += us(t3, t4);
            bytes += static_cast<double>(text.size());
        }
    }
    // serve-hot and serve-cold send no inline graphs: their rows are 0.
    const double calls = static_cast<double>(
        kReplayPasses * std::max<std::size_t>(in.texts.size(), 1));
    report.layer("graph.parse_us", parse / calls, "us");
    report.layer("graph.quantize_us", quantize / calls, "us");
    report.layer("graph.fingerprint_us", fingerprint / calls, "us");
    report.layer("encode.network_us", encode / calls, "us");
    report.layer("graph.text_bytes", bytes / calls, "bytes");
}

void
reportCache(Report &report, const gcm::serve::ShardedLruCache::Stats &a,
            const gcm::serve::ShardedLruCache::Stats &b)
{
    const auto hits = static_cast<double>(b.hits - a.hits);
    const auto misses = static_cast<double>(b.misses - a.misses);
    report.layer("cache.hits", hits, "count");
    report.layer("cache.misses", misses, "count");
    report.layer("cache.inserts",
                 static_cast<double>(b.insertions - a.insertions), "count");
    report.layer("cache.evictions",
                 static_cast<double>(b.evictions - a.evictions), "count");
    report.layer("cache.coalesced",
                 static_cast<double>(b.coalesced - a.coalesced), "count");
    report.layer("cache.hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0,
                 "ratio");
    report.fact("cache_hit_ratio_base", hits + misses);
}

/** What one setup builds for the timed phase. */
struct ServeSetup
{
    std::unique_ptr<ExperimentContext> ctx;
    PredictionService::DeviceTable table;
    ServeInputs inputs;
    /** Declared before the service, which keeps a reference to it. */
    std::unique_ptr<ModelRegistry> registry;
    /** The service's cache, held here so a new search can clear it. */
    std::shared_ptr<gcm::serve::ShardedLruCache> cache;
    std::unique_ptr<PredictionService> service;
};

ServeSetup
setUp(const Options &opts, const Fit &fit, SetupTimes &times)
{
    gcm::setThreads(hostCores());
    ServeSetup s;
    const auto t0 = Clock::now();
    s.ctx = std::make_unique<ExperimentContext>(ExperimentContext::build());
    const auto t1 = Clock::now();
    s.table = deviceTable(*s.ctx, fit.model->signatureNames());
    s.inputs = makeServeInputs(opts.workload, opts.seed, s.table);
    const auto t2 = Clock::now();
    s.registry = std::make_unique<ModelRegistry>();
    std::istringstream is(fit.bytes);
    s.registry->publish(gcm::serve::ModelSnapshot::fromStream(is));
    // The default ServiceConfig, as `gcm serve` and `gcm search` use.
    const gcm::serve::ServiceConfig config;
    s.cache = std::make_shared<gcm::serve::ShardedLruCache>(
        config.cache_capacity, config.cache_shards);
    s.service = std::make_unique<PredictionService>(*s.registry, s.table,
                                                    config, s.cache);
    times.add(t0, t1, t2, Clock::now());
    return s;
}

} // namespace

void
runServe(const Options &opts, Report &report)
{
    gcm::setThreads(hostCores());
    const auto fit_ctx = ExperimentContext::build();
    std::vector<std::size_t> all(fit_ctx.fleet().size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const auto latencies = fit_ctx.latencyMatrix(all);
    const Fit fit = fitSingle(fit_ctx.suite(), latencies, report);

    // Setup, repeated (median reported): context, device table and
    // requests, model load. The last setup serves the timed phase.
    SetupTimes times;
    ServeSetup setup;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
        setup.service.reset(); // before the registry it references
        setup = setUp(opts, fit, times);
    }
    const ExperimentContext &ctx = *setup.ctx;
    const PredictionService::DeviceTable &table = setup.table;
    const ServeInputs &in = setup.inputs;
    PredictionService &service = *setup.service;
    report.check(suiteCollisions(in, ctx.suite()) == 0,
                 "no unseen graph matches a training-suite fingerprint");
    report.fact("request_lines", static_cast<double>(in.lines.size()));
    report.fact("batch_requests", static_cast<double>(in.batch));
    report.fact("cache_capacity",
                static_cast<double>(setup.cache->capacity()));

    // Warm-up: one pass over every line (fills memos and, on
    // serve-hot, the cache); its responses score requests_r2.
    gcm::setThreads(1);
    Scratch scratch;
    const std::size_t cycle = in.lines.size() / in.batch;
    std::vector<double> served;
    for (std::size_t b = 0; b < cycle; ++b) {
        serveBatch(service, &in.lines[b * in.batch], in.batch, scratch);
        for (const auto &r : scratch.responses)
            served.push_back(r.latency_ms);
    }
    report.attempted(in.lines.size());

    const auto batch = [&](std::size_t b) {
        if (in.new_search_per_cycle && b % cycle == 0)
            setup.cache->clear();
        return serveBatch(service, &in.lines[(b % cycle) * in.batch],
                          in.batch, scratch);
    };
    // The timed phase, in slices spread over the rest of the run.
    obs::setEnabled(false);
    LoopStats st;
    std::uint64_t loop_hits = 0;
    const auto slice = [&](std::size_t setups) {
        for (std::size_t rep = 0; rep < setups; ++rep)
            setUp(opts, fit, times);
        gcm::setThreads(1);
        const std::uint64_t hits0 = service.cache().stats().hits;
        st.append(timedLoop(cycle, opts.seconds / kLoopSlices, batch));
        loop_hits += service.cache().stats().hits - hits0;
    };
    slice(0);

    // Checks: a seeded sample re-served twice (the second pass from
    // the cache) must equal the reference model's predictMs bit for
    // bit.
    gcm::Rng rng = gcm::Rng(opts.seed).fork(9);
    const auto sample =
        rng.sampleWithoutReplacement(in.lines.size(), kReferenceSample);
    std::vector<std::string> sample_lines;
    for (std::size_t k : sample)
        sample_lines.push_back(in.lines[k]);
    std::size_t mismatched = 0;
    std::uint64_t hits0 = 0;
    for (std::size_t pass = 0; pass < 2; ++pass) {
        hits0 = service.cache().stats().hits;
        for (std::size_t b = 0; b < kReferenceSample / kBatch; ++b) {
            serveBatch(service, &sample_lines[b * kBatch], kBatch, scratch);
            for (std::size_t i = 0; i < kBatch; ++i) {
                const Query &q = in.queries[sample[b * kBatch + i]];
                const double want = fit.model->predictMs(
                    queryGraph(q, in),
                    q.signature.empty() ? table.at(q.device)
                                        : q.signature);
                if (scratch.responses[i].latency_ms != want)
                    ++mismatched;
            }
        }
    }
    report.attempted(2 * kReferenceSample);
    report.check(mismatched == 0,
                 std::to_string(mismatched)
                     + " sampled responses differ from predictMs");
    report.check(service.cache().stats().hits - hits0 == kReferenceSample,
                 "the second sample pass was served from the cache");

    // r2: the served model's accuracy, the same on every serve
    // workload: every zoo network on every fleet device, served after
    // the timed phase. The workload's own distinct requests are scored
    // too (a fact, with a floor): serve-hot has only 16 of them, too
    // few for a steady R^2.
    ServeInputs zoo;
    for (const auto &net : gcm::dnn::zooModelNames()) {
        for (const auto &entry : table) {
            Query q;
            q.network = net;
            q.device = entry.first;
            zoo.queries.push_back(std::move(q));
        }
    }
    std::vector<double> zoo_served;
    for (std::size_t i = 0; i < zoo.queries.size(); ++i)
        zoo.lines.push_back(renderRequestLine(zoo.queries[i], zoo, i));
    for (std::size_t i = 0; i < zoo.lines.size(); i += kBatch) {
        serveBatch(service, &zoo.lines[i],
                   std::min(kBatch, zoo.lines.size() - i), scratch);
        for (const auto &r : scratch.responses)
            zoo_served.push_back(r.latency_ms);
    }
    report.attempted(zoo.lines.size());
    const double r2 =
        gcm::ml::r2Score(groundTruth(ctx, zoo), zoo_served);
    report.endToEnd("r2", r2, "ratio");
    report.fact("r2_points", static_cast<double>(zoo_served.size()));
    report.check(r2 >= kZooR2Floor, "served zoo r2 " + std::to_string(r2)
                                        + " >= "
                                        + std::to_string(kZooR2Floor));

    ServeInputs distinct;
    distinct.graphs = in.graphs;
    std::vector<double> y_pred;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < in.queries.size(); ++i) {
        if (seen.insert(renderRequestLine(in.queries[i], in, 0)).second) {
            distinct.queries.push_back(in.queries[i]);
            y_pred.push_back(served[i]);
        }
    }
    const double requests_r2 =
        gcm::ml::r2Score(groundTruth(ctx, distinct), y_pred);
    report.fact("requests_r2", requests_r2);
    report.fact("requests_r2_points", static_cast<double>(y_pred.size()));
    if (opts.workload != Workload::ServeHot) {
        report.check(requests_r2 >= requestsR2Floor(opts.workload),
                     "served r2 of the requests "
                         + std::to_string(requests_r2) + " >= "
                         + std::to_string(requestsR2Floor(opts.workload)));
    }

    slice(kSetupRepsPerLaterSlice);

    reportPeakRss(report);
    obs::setEnabled(opts.trace); // pool.* counters
    fitMulti(fit_ctx.suite(), latencies, fit, report);
    obs::setEnabled(false);
    slice(kSetupRepsPerLaterSlice);
    times.report(report);
    reportLoop(report, st);
    report.attempted(st.ops);
    report.fact("loop_cache_hit_ratio", static_cast<double>(loop_hits)
                                            / static_cast<double>(st.ops));

    if (opts.trace) {
        obs::reset();
        obs::setEnabled(true);
        const auto c0 = service.cache().stats();
        const LoopStats traced = timedLoop(cycle, opts.seconds, batch);
        reportCache(report, c0, service.cache().stats());
        report.layer("flat.rows",
                     static_cast<double>(obs::counterValue("flat.rows")),
                     "count");
        reportLoopTrace(report, st, traced);
        report.attempted(traced.ops);
        replayGraphs(in, setup.registry->active().snapshot->costModel(),
                     report);
    }
    report.failedOps(scratch.failed, "serve requests did not succeed");
}

} // namespace perfbench
