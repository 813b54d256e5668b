/**
 * @file
 * Tests for the serving subsystem: graph fingerprint stability,
 * registry hot-swap/rollback, sharded LRU cache correctness,
 * batch determinism at any thread count, protocol hardening against
 * untrusted input, the front end (the one serving path) and
 * load-generator determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/net_encoder.hh"
#include "dnn/fingerprint.hh"
#include "dnn/generator.hh"
#include "dnn/quantize.hh"
#include "dnn/serialize.hh"
#include "dnn/zoo.hh"
#include "ml/gbt.hh"
#include "obs/obs.hh"
#include "ml/random_forest.hh"
#include "search/genome_ops.hh"
#include "serve/cache.hh"
#include "serve/frontend.hh"
#include "serve/loadgen.hh"
#include "serve/protocol.hh"
#include "serve/registry.hh"
#include "serve/service.hh"
#include "testing_support.hh"
#include "util/error.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

using namespace gcm;

namespace
{

/** One trained cost model over the reduced test context. */
const core::SignatureCostModel &
testModel()
{
    static const core::SignatureCostModel model = [] {
        const auto &ctx = gcmtest::smallContext();
        std::vector<std::size_t> devices(ctx.fleet().size());
        for (std::size_t i = 0; i < devices.size(); ++i)
            devices[i] = i;
        core::SignatureCostModel::Config cfg;
        cfg.gbt = gcmtest::fastGbt();
        return core::SignatureCostModel::train(
            ctx.suite(), ctx.latencyMatrix(devices), cfg);
    }();
    return model;
}

/** Registry with the test model published (version 1, active). */
const serve::ModelRegistry &
testRegistry()
{
    // The registry holds a mutex, so it is built in place and leaked
    // (it must outlive every service in the test binary anyway).
    static const serve::ModelRegistry *registry = [] {
        auto *r = new serve::ModelRegistry;
        std::stringstream ss;
        testModel().serialize(ss);
        r->publish(serve::ModelSnapshot::fromStream(ss));
        return r;
    }();
    return *registry;
}

/** Fleet device names -> signature latencies, from the clean runs. */
serve::PredictionService::DeviceTable
testDeviceTable()
{
    const auto &ctx = gcmtest::smallContext();
    const auto &model = testModel();
    serve::PredictionService::DeviceTable table;
    for (std::size_t d = 0; d < ctx.fleet().size(); ++d) {
        std::vector<double> sig;
        for (const auto &name : model.signatureNames())
            sig.push_back(ctx.latencyMs(d, ctx.networkIndex(name)));
        table[ctx.fleet().devices()[d].model_name] = std::move(sig);
    }
    return table;
}

std::string
firstDeviceName()
{
    return testDeviceTable().begin()->first;
}

serve::ServeRequest
networkRequest(const std::string &id, const std::string &network,
               const std::string &device)
{
    serve::ServeRequest r;
    r.id = id;
    r.network = network;
    r.device = device;
    return r;
}

} // namespace

// --- graph fingerprint -------------------------------------------------

TEST(Fingerprint, StableAcrossSerializationRoundTrip)
{
    for (const char *name : {"mobilenet_v2_1.0", "mnasnet_a1"}) {
        const dnn::Graph g = dnn::quantize(dnn::buildZooModel(name));
        const std::uint64_t before = dnn::graphFingerprint(g);
        const dnn::Graph back =
            dnn::graphFromText(dnn::graphToText(g));
        EXPECT_EQ(dnn::graphFingerprint(back), before) << name;
    }
}

TEST(Fingerprint, IgnoresGraphName)
{
    const dnn::Graph g =
        dnn::quantize(dnn::buildZooModel("squeezenet_1.1"));
    const dnn::Graph renamed("totally-different-name", g.nodes(),
                             g.precision());
    EXPECT_EQ(dnn::graphFingerprint(renamed), dnn::graphFingerprint(g));
}

TEST(Fingerprint, DistinguishesStructures)
{
    const auto fp = [](const char *name) {
        return dnn::graphFingerprint(
            dnn::quantize(dnn::buildZooModel(name)));
    };
    EXPECT_NE(fp("mobilenet_v2_1.0"), fp("mnasnet_a1"));
    EXPECT_NE(fp("mobilenet_v2_1.0"), fp("mobilenet_v2_0.75"));
}

TEST(Fingerprint, SensitiveToPrecision)
{
    const dnn::Graph fp32 = dnn::buildZooModel("squeezenet_1.1");
    const dnn::Graph int8 = dnn::quantize(fp32);
    EXPECT_NE(dnn::graphFingerprint(fp32), dnn::graphFingerprint(int8));
}

// --- model registry ----------------------------------------------------

TEST(Registry, PublishActivateRollback)
{
    serve::ModelRegistry registry;
    EXPECT_FALSE(registry.active());
    EXPECT_THROW(registry.rollback(), GcmError);

    std::stringstream s1, s2;
    testModel().serialize(s1);
    testModel().serialize(s2);
    const auto v1 =
        registry.publish(serve::ModelSnapshot::fromStream(s1));
    const auto v2 =
        registry.publish(serve::ModelSnapshot::fromStream(s2));
    EXPECT_EQ(v1, 1u);
    EXPECT_EQ(v2, 2u);
    EXPECT_EQ(registry.activeVersion(), v2);
    EXPECT_EQ(registry.versions(), (std::vector<std::uint64_t>{1, 2}));

    registry.rollback(); // back to v1
    EXPECT_EQ(registry.activeVersion(), v1);
    registry.activate(v2);
    EXPECT_EQ(registry.activeVersion(), v2);
    EXPECT_THROW(registry.activate(99), GcmError);
    EXPECT_NE(registry.snapshot(v1), nullptr);
}

TEST(Registry, SniffsAllThreeModelKinds)
{
    // A cost model loads...
    std::stringstream cm;
    testModel().serialize(cm);
    EXPECT_EQ(serve::ModelSnapshot::fromStream(cm)
                  .costModel()
                  .signatureNames(),
              testModel().signatureNames());

    // ...but bare GBT and RF regressors answer feature rows, not
    // (network, device) queries, so the registry rejects them.
    Rng rng(11);
    ml::Dataset ds(2);
    for (int i = 0; i < 200; ++i) {
        const float a = static_cast<float>(rng.uniform(0, 4));
        const float b = static_cast<float>(rng.uniform(0, 4));
        ds.addRow({a, b}, a * 2.0 + b);
    }
    ml::GradientBoostedTrees gbt(gcmtest::fastGbt());
    gbt.train(ds);
    std::stringstream gs;
    gbt.serialize(gs);
    EXPECT_THROW((void)serve::ModelSnapshot::fromStream(gs), GcmError);

    ml::RandomForest rf;
    rf.train(ds);
    std::stringstream rs;
    rf.serialize(rs);
    EXPECT_THROW((void)serve::ModelSnapshot::fromStream(rs), GcmError);

    std::stringstream garbage("not a model at all");
    EXPECT_THROW((void)serve::ModelSnapshot::fromStream(garbage),
                 GcmError);
}

TEST(Registry, HotSwapUnderConcurrentServing)
{
    // A writer thread flips between two versions while a reader
    // serves batches; every batch must see a complete snapshot
    // (version 1 or 2, never a torn state). Run under TSan.
    serve::ModelRegistry registry;
    std::stringstream s1, s2;
    testModel().serialize(s1);
    testModel().serialize(s2);
    registry.publish(serve::ModelSnapshot::fromStream(s1));
    registry.publish(serve::ModelSnapshot::fromStream(s2));

    serve::PredictionService service(registry, testDeviceTable(), {});
    const std::vector<serve::ServeRequest> batch = {
        networkRequest("a", "mobilenet_v2_1.0", firstDeviceName())};

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        for (int i = 0; i < 200; ++i) {
            registry.activate(1 + (i % 2));
            std::this_thread::yield();
        }
        stop.store(true);
    });
    // Serve until the writer is done and a minimum of work is in, so
    // a fast writer cannot end the loop before it has raced anything.
    constexpr std::size_t kMinServed = 64;
    std::size_t served = 0;
    while (!stop.load() || served < kMinServed) {
        const auto responses = service.processBatch(batch);
        ASSERT_EQ(responses.size(), 1u);
        ASSERT_TRUE(responses[0].ok) << responses[0].error_message;
        ASSERT_TRUE(responses[0].model_version == 1
                    || responses[0].model_version == 2);
        ++served;
    }
    writer.join();
    EXPECT_GT(served, 0u);
}

// --- sharded LRU cache -------------------------------------------------

TEST(Cache, LruEvictionAtCapacity)
{
    serve::ShardedLruCache cache(2, 1); // one shard: strict LRU
    const serve::CacheKey k1{1, 1, 1}, k2{2, 2, 1}, k3{3, 3, 1};
    cache.put(k1, 10.0);
    cache.put(k2, 20.0);
    ASSERT_TRUE(cache.get(k1).has_value()); // k1 becomes MRU
    cache.put(k3, 30.0);                    // evicts k2 (LRU)

    EXPECT_FALSE(cache.get(k2).has_value());
    EXPECT_EQ(cache.get(k1), 10.0);
    EXPECT_EQ(cache.get(k3), 30.0);
    const auto st = cache.stats();
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.insertions, 3u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(Cache, ZeroCapacityDisablesCaching)
{
    serve::ShardedLruCache cache(0);
    cache.put({1, 1, 1}, 10.0);
    EXPECT_FALSE(cache.get({1, 1, 1}).has_value());
    EXPECT_EQ(cache.size(), 0u);
}

TEST(Cache, TotalResidencyNeverExceedsCapacity)
{
    serve::ShardedLruCache cache(10, 8);
    for (std::uint64_t i = 0; i < 1000; ++i)
        cache.put({i, i * 7919, 1}, static_cast<double>(i));
    EXPECT_LE(cache.size(), 10u);
}

TEST(Cache, AllUniqueStreamAccountingUnderConcurrency)
{
    // The architecture search's adversarial shape: every key unique,
    // many threads, a capacity far below the stream. Whatever the
    // interleaving, the counters must stay exactly consistent.
    serve::ShardedLruCache cache(64, 8);
    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kPerThread = 500;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&cache, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                const serve::CacheKey key{t * 1000000 + i,
                                          i * 7919 + t, 1};
                (void)cache.get(key); // always a first-touch probe
                cache.put(key, static_cast<double>(i));
                (void)cache.get(key); // hit unless already evicted
            }
        });
    }
    for (auto &w : workers)
        w.join();

    const auto st = cache.stats();
    // hits + misses == every probe issued; nothing lost or double
    // counted across shards.
    EXPECT_EQ(st.hits + st.misses, 2 * kThreads * kPerThread);
    // All keys are unique, so every put inserted a fresh entry.
    EXPECT_EQ(st.insertions, kThreads * kPerThread);
    // Every insertion is either still resident or was evicted.
    EXPECT_EQ(st.evictions, st.insertions - cache.size());
    EXPECT_LE(cache.size(), cache.capacity());
    EXPECT_EQ(st.coalesced, 0u);
}

TEST(Cache, SignatureFingerprintSeparatesVectors)
{
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{1.0, 2.0, 3.0000000001};
    EXPECT_EQ(serve::signatureFingerprint(a),
              serve::signatureFingerprint({1.0, 2.0, 3.0}));
    EXPECT_NE(serve::signatureFingerprint(a),
              serve::signatureFingerprint(b));
    EXPECT_NE(serve::signatureFingerprint({1.0}),
              serve::signatureFingerprint({1.0, 1.0}));
}

// --- prediction service ------------------------------------------------

TEST(Service, AllUniqueCandidateStreamUnderConcurrentHotSwap)
{
    // The search's inner loop against a live registry: batches of
    // all-unique candidate graphs (in-process graph_ptr requests, the
    // src/search stream) served while a writer flips the active model
    // version. Cache accounting must stay exact under the churn. Run
    // under TSan.
    serve::ModelRegistry registry;
    std::stringstream s1, s2;
    testModel().serialize(s1);
    testModel().serialize(s2);
    registry.publish(serve::ModelSnapshot::fromStream(s1));
    registry.publish(serve::ModelSnapshot::fromStream(s2));

    serve::ServiceConfig cfg;
    cfg.cache_capacity = 48; // far below the stream: forces eviction
    cfg.cache_shards = 4;
    serve::PredictionService service(registry, testDeviceTable(), cfg);

    // A mutation chain of unique candidates, deduped by fingerprint
    // so the stream really is all-unique.
    const dnn::SearchSpace space;
    Rng rng(2024);
    dnn::ArchGenome genome = dnn::sampleGenome(space, rng);
    std::vector<dnn::Graph> candidates;
    std::set<std::uint64_t> fps;
    while (candidates.size() < 48) {
        genome = search::mutateGenome(genome, space, rng);
        dnn::Graph g = dnn::quantize(
            dnn::buildGenome(genome, space, "stress"));
        if (fps.insert(dnn::graphFingerprint(g)).second)
            candidates.push_back(std::move(g));
    }
    const auto table = testDeviceTable();
    auto dev_it = table.begin();
    const std::string dev_a = (dev_it++)->first;
    const std::string dev_b = dev_it->first;

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        for (int i = 0; i < 200; ++i) {
            registry.activate(1 + (i % 2));
            std::this_thread::yield();
        }
        stop.store(true);
    });
    // Serve until the writer is done and the stream has overflowed the
    // cache several times over: the writer's activations can finish
    // before 48 entries are ever inserted.
    std::uint64_t probes = 0;
    std::size_t next = 0;
    while (!stop.load() || probes < 4 * cfg.cache_capacity) {
        std::vector<serve::ServeRequest> batch;
        for (std::size_t j = 0; j < 12; ++j) {
            serve::ServeRequest r;
            r.id = std::to_string(j);
            r.graph_ptr = &candidates[(next + j) % candidates.size()];
            r.device = j % 2 == 0 ? dev_a : dev_b;
            batch.push_back(std::move(r));
        }
        next = (next + 12) % candidates.size();
        const auto responses = service.processBatch(batch);
        for (const auto &resp : responses) {
            ASSERT_TRUE(resp.ok) << resp.error_message;
            ASSERT_TRUE(resp.model_version == 1
                        || resp.model_version == 2);
        }
        probes += batch.size();
    }
    writer.join();

    const auto st = service.cache().stats();
    // Every request resolved and probed exactly once; batches never
    // repeat a (graph, device) pair, so nothing coalesces.
    EXPECT_EQ(st.hits + st.misses, probes);
    EXPECT_EQ(st.coalesced, 0u);
    // Every miss computed and inserted a fresh entry (the service is
    // the only cache writer, and a missed key stays absent until its
    // own batch's put).
    EXPECT_EQ(st.insertions, st.misses);
    EXPECT_EQ(st.evictions, st.insertions - service.cache().size());
    EXPECT_LE(service.cache().size(), cfg.cache_capacity);
    EXPECT_GT(st.evictions, 0u);
}

TEST(Service, CacheHitIsByteIdenticalToColdPath)
{
    const auto &registry = testRegistry();
    serve::ServiceConfig cold_cfg;
    cold_cfg.cache_capacity = 0; // cold path every time
    serve::PredictionService cold(registry, testDeviceTable(),
                                  cold_cfg);
    serve::PredictionService cached(registry, testDeviceTable(), {});

    const std::vector<serve::ServeRequest> batch = {
        networkRequest("x", "mobilenet_v2_1.0", firstDeviceName())};
    const std::string cold_line =
        serve::renderResponse(cold.processBatch(batch)[0]);

    const std::string miss_line =
        serve::renderResponse(cached.processBatch(batch)[0]);
    const std::string hit_line =
        serve::renderResponse(cached.processBatch(batch)[0]);
    EXPECT_EQ(cached.cache().stats().hits, 1u);
    EXPECT_EQ(hit_line, miss_line);
    EXPECT_EQ(hit_line, cold_line);
}

TEST(Service, CoalescesDuplicateKeysWithinBatch)
{
    serve::PredictionService service(testRegistry(), testDeviceTable(),
                                     {});
    const auto req =
        networkRequest("d", "squeezenet_1.1", firstDeviceName());
    const auto responses = service.processBatch({req, req, req});
    ASSERT_EQ(responses.size(), 3u);
    for (const auto &r : responses) {
        EXPECT_TRUE(r.ok) << r.error_message;
        EXPECT_EQ(r.latency_ms, responses[0].latency_ms);
    }
    // One unique key -> one insertion, even though all three missed.
    EXPECT_EQ(service.cache().stats().insertions, 1u);
    EXPECT_EQ(service.cache().stats().misses, 3u);
}

TEST(Service, InlineTextParsedOncePerBatch)
{
    // A search generation's shape: every candidate text is sent once
    // per device. Add a malformed text sent twice and a valid text on
    // an unknown device.
    std::vector<std::string> devices;
    for (const auto &[name, sig] : testDeviceTable()) {
        if (devices.size() < 3)
            devices.push_back(name);
    }
    dnn::RandomNetworkGenerator gen(dnn::SearchSpace{}, 2323);
    std::vector<serve::ServeRequest> batch;
    const auto add = [&batch](std::string text, std::string device) {
        serve::ServeRequest r;
        r.id = "r" + std::to_string(batch.size());
        r.graph_text = std::move(text);
        r.device = std::move(device);
        batch.push_back(std::move(r));
    };
    for (int c = 0; c < 8; ++c) {
        const std::string text = dnn::graphToText(
            gen.generate("cand" + std::to_string(c)));
        for (const auto &device : devices)
            add(text, device);
    }
    const std::string malformed = "gcm-graph v1\nname broken\nnodes x\n";
    add(malformed, devices[0]);
    add(malformed, devices[1]);
    add(dnn::graphToText(gen.generate("lost")), "not-a-phone");

    serve::PredictionService batched(testRegistry(), testDeviceTable(),
                                     {});
    obs::reset();
    obs::setEnabled(true);
    const auto responses = batched.processBatch(batch);
    const std::uint64_t parsed = obs::counterValue("serve.graph.parsed");
    obs::setEnabled(false);
    obs::reset();
    // 8 candidates + the malformed text; the unknown device fails its
    // request check before any parse.
    EXPECT_EQ(parsed, 9u);

    serve::PredictionService single(testRegistry(), testDeviceTable(),
                                    {});
    ASSERT_EQ(responses.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto alone = single.processBatch({batch[i]});
        EXPECT_EQ(serve::renderResponse(responses[i]),
                  serve::renderResponse(alone[0]))
            << i;
    }
    EXPECT_TRUE(responses[0].ok) << responses[0].error_message;
    EXPECT_EQ(responses[24].error_code, serve::ServeErrorCode::BadGraph);
    EXPECT_EQ(responses[25].error_message, responses[24].error_message);
    EXPECT_EQ(responses[26].error_code,
              serve::ServeErrorCode::UnknownDevice);
    const auto a = batched.cache().stats();
    const auto b = single.cache().stats();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.insertions, b.insertions);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.coalesced, b.coalesced);
    EXPECT_EQ(a.misses, 24u);
}

TEST(Service, TooDeepNetworkIsUnsupported)
{
    // A network deeper than the model's positional layout is the
    // client's problem, named with both depths, whether it comes by
    // zoo name or as inline text.
    const dnn::Graph deep =
        dnn::quantize(dnn::buildZooModel("efficientnet_b0"));
    const std::size_t depth = core::NetworkEncoder::depth(deep);
    const std::size_t limit = testModel().encoder().maxLayers();
    ASSERT_GT(depth, limit);
    serve::ServeRequest inline_req;
    inline_req.id = "inline";
    inline_req.graph_text = dnn::graphToText(deep);
    inline_req.device = firstDeviceName();

    serve::PredictionService service(testRegistry(), testDeviceTable(),
                                     {});
    const auto responses = service.processBatch(
        {networkRequest("name", "efficientnet_b0", firstDeviceName()),
         inline_req});
    for (const auto &r : responses) {
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error_code, serve::ServeErrorCode::UnsupportedNetwork);
        EXPECT_NE(r.error_message.find(std::to_string(depth) + " layers"),
                  std::string::npos)
            << r.error_message;
        EXPECT_NE(r.error_message.find("at most " + std::to_string(limit)),
                  std::string::npos)
            << r.error_message;
        EXPECT_NE(serve::renderResponse(r).find(
                      "\"code\": \"unsupported_network\""),
                  std::string::npos);
    }
    // Refused before the cache: nothing was probed or computed.
    EXPECT_EQ(service.cache().stats().misses, 0u);
}

TEST(Service, BatchIsThreadCountInvariant)
{
    const auto run = [](std::size_t threads) {
        setThreads(threads);
        serve::PredictionService service(testRegistry(),
                                         testDeviceTable(), {});
        std::vector<serve::ServeRequest> batch;
        const auto &table = testDeviceTable();
        int i = 0;
        for (const auto &[device, sig] : table) {
            batch.push_back(networkRequest(
                "r" + std::to_string(i),
                i % 2 ? "mobilenet_v2_1.0" : "mnasnet_a1", device));
            ++i;
        }
        std::string out;
        for (const auto &r : service.processBatch(batch))
            out += serve::renderResponse(r) + "\n";
        return out;
    };
    const std::string one = run(1);
    const std::string eight = run(8);
    setThreads(0); // restore default
    EXPECT_EQ(one, eight);
}

TEST(Service, RawSignatureRequestsServe)
{
    serve::PredictionService service(testRegistry(), testDeviceTable(),
                                     {});
    serve::ServeRequest req;
    req.id = "raw";
    req.network = "squeezenet_1.1";
    req.signature = testDeviceTable().begin()->second;
    req.has_signature = true;
    const auto responses = service.processBatch({req});
    ASSERT_TRUE(responses[0].ok) << responses[0].error_message;

    // Same signature via the device name -> same cache key -> hit.
    const auto again = service.processBatch(
        {networkRequest("byname", "squeezenet_1.1", firstDeviceName())});
    EXPECT_TRUE(again[0].ok);
    EXPECT_EQ(again[0].latency_ms, responses[0].latency_ms);
    EXPECT_EQ(service.cache().stats().hits, 1u);
}

TEST(Service, NonPositivePredictionIsAModelError)
{
    // Edit the first leaf of the first tree to a large negative value,
    // as a corrupted model file would carry it.
    std::stringstream text;
    testModel().serialize(text);
    std::string model = text.str();
    const std::size_t leaf = model.find("node -1 0 0 -1 -1 ");
    ASSERT_NE(leaf, std::string::npos);
    const std::size_t value = leaf + std::strlen("node -1 0 0 -1 -1 ");
    model.replace(value, model.find('\n', value) - value, "-1000");
    serve::ModelRegistry edited;
    std::istringstream in(model);
    edited.publish(serve::ModelSnapshot::fromStream(in));

    // Every suite zoo network on every device, before and after.
    const auto &ctx = gcmtest::smallContext();
    const auto zoo = dnn::zooModelNames();
    std::vector<serve::ServeRequest> batch;
    for (const auto &net : ctx.networkNames()) {
        if (std::find(zoo.begin(), zoo.end(), net) == zoo.end())
            continue;
        for (const auto &[device, sig] : testDeviceTable())
            batch.push_back(networkRequest(net + "@" + device, net, device));
    }
    serve::PredictionService original(testRegistry(), testDeviceTable(),
                                      {});
    serve::PredictionService service(edited, testDeviceTable(), {});
    const auto before = original.processBatch(batch);
    obs::reset();
    obs::setEnabled(true);
    const auto after = service.processBatch(batch);
    // Model errors are not cached: the second pass fails the same way.
    const auto again = service.processBatch(batch);
    const std::uint64_t counted =
        obs::counterValue("serve.responses.model_error");
    obs::setEnabled(false);
    obs::reset();
    std::size_t model_errors = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(before[i].ok) << before[i].error_message;
        EXPECT_EQ(serve::renderResponse(again[i]),
                  serve::renderResponse(after[i]));
        if (after[i].ok) {
            // Rows that miss the edited leaf predict what they did.
            EXPECT_EQ(after[i].latency_ms, before[i].latency_ms);
            continue;
        }
        ++model_errors;
        EXPECT_EQ(after[i].error_code, serve::ServeErrorCode::ModelError);
        const std::string line = serve::renderResponse(after[i]);
        EXPECT_NE(line.find("\"code\": \"model_error\""),
                  std::string::npos)
            << line;
        EXPECT_EQ(line.find("\"ok\": true"), std::string::npos) << line;
    }
    EXPECT_GT(model_errors, 0u);
    EXPECT_EQ(counted, 2 * model_errors);
    // The second pass hits on every ok key and on no failed one.
    EXPECT_EQ(service.cache().stats().hits, batch.size() - model_errors);
}

TEST(Service, EmptyRegistryYieldsNoModel)
{
    serve::ModelRegistry empty;
    serve::PredictionService service(empty, testDeviceTable(), {});
    const auto responses = service.processBatch(
        {networkRequest("x", "mobilenet_v2_1.0", firstDeviceName())});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_FALSE(responses[0].ok);
    EXPECT_EQ(responses[0].error_code, serve::ServeErrorCode::NoModel);
}

// --- protocol hardening ------------------------------------------------

namespace
{

/** Serve `input` through a fresh 1-worker front end; return output. */
std::string
serveStream(const std::string &input, std::size_t *consumed = nullptr)
{
    serve::FrontEndConfig cfg;
    cfg.workers = 1;
    serve::ServerFrontEnd fe(testRegistry(), testDeviceTable(), cfg);
    std::istringstream in(input);
    std::ostringstream out;
    const std::size_t n = serve::runFrontEndLoop(fe, in, out);
    if (consumed != nullptr)
        *consumed = n;
    return out.str();
}

/** Run one line through a fresh serve loop; return the response. */
std::string
serveOneLine(const std::string &line)
{
    return serveStream(line + "\n");
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream split(text);
    for (std::string line; std::getline(split, line);)
        lines.push_back(line);
    return lines;
}

} // namespace

TEST(Protocol, MalformedJsonBecomesStructuredError)
{
    for (const char *line :
         {"not json at all", "{\"id\": \"x\"", "[1,2,3]", "42", "",
          "{\"id\": \"x\", \"id\": \"y\"}"}) {
        const std::string response = serveOneLine(line);
        EXPECT_NE(response.find("\"ok\": false"), std::string::npos)
            << line;
        EXPECT_NE(response.find("bad_request"), std::string::npos)
            << line;
    }
}

TEST(Protocol, RejectsUnknownFieldsAndWrongTypes)
{
    const char *cases[] = {
        "{\"id\": \"x\", \"network\": \"a\", \"device\": \"d\", "
        "\"exploit\": 1}",
        "{\"id\": \"x\", \"network\": 7, \"device\": \"d\"}",
        "{\"id\": \"x\", \"network\": \"a\", \"signature\": \"oops\"}",
        "{\"id\": \"x\", \"network\": \"a\", \"signature\": [1, "
        "\"two\"]}",
        "{\"id\": 9}",
    };
    for (const char *line : cases) {
        const std::string response = serveOneLine(line);
        EXPECT_NE(response.find("bad_request"), std::string::npos)
            << line;
    }
}

TEST(Protocol, RejectsNonFiniteNumbers)
{
    // 1e999 overflows to inf; NaN / Infinity are not JSON at all.
    for (const char *line :
         {"{\"id\": \"x\", \"network\": \"a\", \"signature\": "
          "[1e999]}",
          "{\"id\": \"x\", \"network\": \"a\", \"signature\": [NaN]}",
          "{\"id\": \"x\", \"network\": \"a\", \"signature\": "
          "[Infinity]}"}) {
        const std::string response = serveOneLine(line);
        EXPECT_NE(response.find("bad_request"), std::string::npos)
            << line;
    }
    EXPECT_NE(serveOneLine("{\"id\": \"x\", \"network\": \"a\", "
                           "\"signature\": [1e999]}")
                  .find("non-finite number '1e999'"),
              std::string::npos);
    // An underflowing latency parses (to 0) and fails validation.
    const std::string tiny = serveOneLine(
        "{\"id\": \"x\", \"network\": \"mobilenet_v2_1.0\", "
        "\"signature\": [1e-400, 1, 1, 1, 1, 1, 1, 1, 1, 1]}");
    EXPECT_NE(tiny.find("finite and positive"), std::string::npos)
        << tiny;
    // Zero and negative latencies parse but fail validation.
    const std::string zero = serveOneLine(
        "{\"id\": \"x\", \"network\": \"mobilenet_v2_1.0\", "
        "\"signature\": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}");
    EXPECT_NE(zero.find("bad_request"), std::string::npos);
}

TEST(Protocol, RejectsOversizedLines)
{
    std::string line = "{\"id\": \"big\", \"network\": \"";
    line.append(serve::kMaxRequestLineBytes, 'a');
    line += "\", \"device\": \"d\"}";
    const std::string response = serveOneLine(line);
    EXPECT_NE(response.find("bad_request"), std::string::npos);
    EXPECT_NE(response.find("byte limit"), std::string::npos);
}

TEST(Protocol, RequiresExactlyOneNetworkAndOneDevice)
{
    const char *cases[] = {
        "{\"id\": \"x\", \"device\": \"d\"}",
        "{\"id\": \"x\", \"network\": \"a\", \"graph\": \"g\", "
        "\"device\": \"d\"}",
        // Valid network, but neither / both of device and signature.
        "{\"id\": \"x\", \"network\": \"mobilenet_v2_1.0\"}",
        "{\"id\": \"x\", \"network\": \"mobilenet_v2_1.0\", "
        "\"device\": \"d\", \"signature\": [1]}",
    };
    for (const char *line : cases) {
        const std::string response = serveOneLine(line);
        EXPECT_NE(response.find("bad_request"), std::string::npos)
            << line;
    }
}

TEST(Protocol, UnknownNamesGetSpecificCodes)
{
    EXPECT_NE(serveOneLine("{\"id\": \"x\", \"network\": \"nope\", "
                           "\"device\": \""
                           + firstDeviceName() + "\"}")
                  .find("unknown_network"),
              std::string::npos);
    EXPECT_NE(serveOneLine("{\"id\": \"x\", \"network\": "
                           "\"mobilenet_v2_1.0\", \"device\": "
                           "\"not-a-phone\"}")
                  .find("unknown_device"),
              std::string::npos);
    EXPECT_NE(serveOneLine("{\"id\": \"x\", \"graph\": \"garbage\", "
                           "\"device\": \""
                           + firstDeviceName() + "\"}")
                  .find("bad_graph"),
              std::string::npos);
}

TEST(Protocol, InlineGraphServesAndMatchesZooFingerprint)
{
    serve::PredictionService service(testRegistry(), testDeviceTable(),
                                     {});
    const dnn::Graph g =
        dnn::quantize(dnn::buildZooModel("mobilenet_v2_1.0"));
    serve::ServeRequest inline_req;
    inline_req.id = "inline";
    inline_req.graph_text = dnn::graphToText(g);
    inline_req.device = firstDeviceName();

    const auto cold = service.processBatch({inline_req});
    ASSERT_TRUE(cold[0].ok) << cold[0].error_message;

    // The same network by zoo name must hit the inline graph's cache
    // entry: the fingerprint is stable across serialization.
    const auto by_name = service.processBatch(
        {networkRequest("name", "mobilenet_v2_1.0", firstDeviceName())});
    ASSERT_TRUE(by_name[0].ok);
    EXPECT_EQ(service.cache().stats().hits, 1u);
    EXPECT_EQ(by_name[0].latency_ms, cold[0].latency_ms);
}

TEST(Protocol, RawControlByteInGraphIsBadRequest)
{
    serve::ServeRequest request;
    request.id = "g";
    request.graph_text = dnn::graphToText(
        dnn::quantize(dnn::buildZooModel("mobilenet_v2_1.0")));
    request.device = firstDeviceName();
    const std::string line = serve::renderRequest(request);
    const std::size_t at = line.find("gcm-graph v1");
    ASSERT_NE(at, std::string::npos);

    // An escaped tab is whitespace to the graph parser: served.
    std::string escaped = line;
    escaped.replace(at + 9, 1, "\\t");
    EXPECT_NE(serveOneLine(escaped).find("\"ok\": true"),
              std::string::npos);

    // A raw tab is not JSON: rejected before the graph parser.
    std::string raw = line;
    raw[at + 9] = '\t';
    const std::string response = serveOneLine(raw);
    EXPECT_NE(response.find("bad_request"), std::string::npos) << response;
    EXPECT_NE(response.find("raw control byte in string"), std::string::npos)
        << response;
}

TEST(Protocol, NonJsonNumbersInSignatureAreBadRequest)
{
    // A full-width signature of 3.1 ms entries is served; the same
    // line with one entry spelled outside RFC 8259 is not.
    const std::size_t width = testModel().signatureNames().size();
    const auto lineWith = [&](const std::string &first) {
        std::string line = "{\"id\": \"n\", \"network\": "
                           "\"squeezenet_1.1\", \"signature\": ["
            + first;
        for (std::size_t k = 1; k < width; ++k)
            line += ", 3.1";
        return line + "]}";
    };
    EXPECT_NE(serveOneLine(lineWith("3.1")).find("\"ok\": true"),
              std::string::npos);
    for (const char *token : {"+3.1", ".5", "3.", "03", "1.e1"}) {
        const std::string response = serveOneLine(lineWith(token));
        EXPECT_NE(response.find("bad_request"), std::string::npos)
            << token << ": " << response;
        EXPECT_NE(response.find(std::string("malformed number '") + token
                                + "'"),
                  std::string::npos)
            << response;
    }
}

TEST(Protocol, RenderedRequestsParseBackFieldForField)
{
    serve::ServeRequest by_name =
        networkRequest("q0", "mobilenet_v2_1.0", "Mi-9");
    by_name.priority = serve::Priority::Bulk;
    EXPECT_EQ(serve::renderRequest(by_name),
              R"({"id": "q0", "network": "mobilenet_v2_1.0", )"
              R"("device": "Mi-9", "priority": "bulk"})");

    serve::ServeRequest raw;
    raw.id = "s\"1";
    raw.network = "mobilenet_v2_1.0";
    raw.has_signature = true;
    raw.signature = {0.1, 42.0, 1.0 / 3.0};
    EXPECT_EQ(serve::renderRequest(raw),
              R"({"id": "s\"1", "network": "mobilenet_v2_1.0", )"
              R"("signature": [0.10000000000000001, 42, )"
              R"(0.33333333333333331]})");

    serve::ServeRequest graph;
    graph.graph_text = "gcm-graph v1\nname t\n";
    graph.device = "Mi-9";
    EXPECT_EQ(serve::renderRequest(graph),
              R"({"graph": "gcm-graph v1\nname t\n", "device": "Mi-9"})");

    for (const serve::ServeRequest &want : {by_name, raw, graph}) {
        serve::ServeRequest got;
        ASSERT_EQ(serve::tryParseRequest(serve::renderRequest(want), got),
                  "");
        EXPECT_EQ(got.id, want.id);
        EXPECT_EQ(got.priority, want.priority);
        EXPECT_EQ(got.network, want.network);
        EXPECT_EQ(got.graph_text, want.graph_text);
        EXPECT_EQ(got.device, want.device);
        EXPECT_EQ(got.has_signature, want.has_signature);
        EXPECT_EQ(got.signature, want.signature);
    }
}

TEST(Protocol, ResponsesKeepRequestOrderAcrossParseFailures)
{
    std::size_t consumed = 0;
    const std::string out = serveStream(
        "{\"id\": \"a\", \"network\": \"mobilenet_v2_1.0\", "
        "\"device\": \""
            + firstDeviceName()
            + "\"}\n"
              "garbage\n"
              "{\"id\": \"c\", \"network\": \"mnasnet_a1\", "
              "\"device\": \""
            + firstDeviceName() + "\"}\n",
        &consumed);
    EXPECT_EQ(consumed, 3u);

    const std::vector<std::string> lines = splitLines(out);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("\"id\": \"a\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"ok\": true"), std::string::npos);
    EXPECT_NE(lines[1].find("\"ok\": false"), std::string::npos);
    EXPECT_NE(lines[2].find("\"id\": \"c\""), std::string::npos);
    EXPECT_NE(lines[2].find("\"ok\": true"), std::string::npos);
}

TEST(Protocol, BoundedReaderDiscardsPastTheCap)
{
    // The reader stores at most the cap (+1 to know it overflowed)
    // and still reports each line's exact length.
    const std::size_t big = 3 * serve::kMaxRequestLineBytes;
    const std::string valid = "{\"id\": \"after\", \"network\": "
                              "\"mobilenet_v2_1.0\", \"device\": \""
                              + firstDeviceName() + "\"}";
    std::istringstream in(std::string(big, 'x') + "\n" + valid + "\n\nz");
    std::string line;
    std::size_t bytes = 0;
    for (const auto &[stored, length] :
         {std::pair{serve::kMaxRequestLineBytes + 1, big},
          std::pair{valid.size(), valid.size()}, std::pair{0UL, 0UL},
          std::pair{1UL, 1UL}}) {
        ASSERT_TRUE(serve::readRequestLine(in, line, bytes));
        EXPECT_EQ(line.size(), stored);
        EXPECT_EQ(bytes, length);
    }
    EXPECT_FALSE(serve::readRequestLine(in, line, bytes));

    // Served: the oversized line reports its exact size, the next is ok.
    const std::vector<std::string> responses =
        splitLines(serveStream(std::string(big, 'x') + "\n" + valid));
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_NE(responses[0].find("bad_request\", \"message\": \"request "
                                "line of " + std::to_string(big)
                                + " bytes exceeds the 1048576-byte limit"),
              std::string::npos)
        << responses[0];
    EXPECT_NE(responses[1].find("\"id\": \"after\", \"ok\": true"),
              std::string::npos)
        << responses[1];
}

TEST(Protocol, TiersShareOneRequestValidator)
{
    // Every malformed request gets its error code from the one request
    // check, which runs before any network lookup, so request shape
    // wins over an unknown name.
    using Code = serve::ServeErrorCode;
    const std::string dev = "\"device\": \"" + firstDeviceName() + "\"";
    const std::pair<std::string, Code> cases[] = {
        {"{\"network\": \"nope\", " + dev + ", \"signature\": [1]}",
         Code::BadRequest},
        {"{\"network\": \"nope\", \"signature\": [-1]}",
         Code::BadRequest},
        {"{\"network\": \"nope\", \"signature\": [2, 0]}",
         Code::BadRequest},
        {"{\"network\": \"nope\", \"device\": \"not-a-phone\"}",
         Code::UnknownDevice},
        {"{\"network\": \"nope\"}", Code::BadRequest},
        {"{" + dev + "}", Code::BadRequest},
        {"{\"network\": \"mnasnet_a1\", \"graph\": \"g\", " + dev + "}",
         Code::BadRequest},
        {"{\"network\": \"nope\", " + dev + "}", Code::UnknownNetwork},
        {"{\"graph\": \"garbage\", " + dev + "}", Code::BadGraph},
    };
    const auto table = testDeviceTable();
    serve::PredictionService service(testRegistry(), table, {});
    for (const auto &[line, code] : cases) {
        serve::ServeRequest request;
        ASSERT_EQ(serve::tryParseRequest(line, request), "") << line;
        const serve::ServeResponse full = service.processBatch({request})[0];
        EXPECT_FALSE(full.ok) << line;
        EXPECT_EQ(full.error_code, code) << line << ": " << full.error_message;
    }
}

// --- load generator ----------------------------------------------------

namespace
{

/**
 * Run the generator through a 1-worker front end at half its
 * capacity, so every request is admitted.
 */
std::pair<serve::FrontEndReport, std::string>
runUnderCapacity(serve::LoadGenConfig cfg)
{
    serve::FrontEndConfig fcfg;
    fcfg.workers = 1;
    serve::ServerFrontEnd fe(testRegistry(), testDeviceTable(), fcfg);
    cfg.offered_qps = 0.5 * fe.capacityQps();
    std::ostringstream out;
    const auto report = serve::runOpenLoadGen(fe, cfg, &out);
    return {report, out.str()};
}

} // namespace

TEST(Loadgen, DuplicateHeavyIsDeterministicAndCacheBound)
{
    serve::LoadGenConfig cfg;
    cfg.requests = 400;
    cfg.seed = 7;
    setThreads(1);
    const auto [r1, s1] = runUnderCapacity(cfg);
    setThreads(8);
    const auto [r8, s8] = runUnderCapacity(cfg);
    setThreads(0);

    EXPECT_EQ(s1, s8); // byte-identical at any thread count
    EXPECT_FALSE(s1.empty());
    EXPECT_EQ(r1.ok, cfg.requests);
    EXPECT_EQ(r1.errors, 0u);
    EXPECT_EQ(r1.tier_shed, 0u);
    // The duplicate-heavy steady state is nearly all cache hits.
    EXPECT_GT(r8.cache.hitRate(), 0.9);
}

TEST(Loadgen, UniqueHeavyNeverHitsTheCache)
{
    serve::LoadGenConfig cfg;
    cfg.requests = 64;
    cfg.mix = serve::LoadMix::UniqueHeavy;
    const auto report = runUnderCapacity(cfg).first;
    EXPECT_EQ(report.ok, cfg.requests);
    EXPECT_EQ(report.cache.hits, 0u);
    EXPECT_EQ(report.cache.misses, cfg.requests);
}

TEST(Loadgen, GeneratedStreamsReplayThroughTheLoop)
{
    serve::LoadGenConfig cfg;
    cfg.requests = 50;
    cfg.seed = 99;
    cfg.offered_qps = 100.0;
    serve::ServerFrontEnd fe(testRegistry(), testDeviceTable(), {});
    const auto arrivals = serve::generateArrivals(fe, cfg);
    ASSERT_EQ(arrivals.size(), cfg.requests);
    for (const auto &a : arrivals) {
        serve::ServeRequest request;
        EXPECT_EQ(serve::tryParseRequest(a.line, request), "") << a.line;
    }
    EXPECT_THROW((void)serve::parseLoadMix("bogus"), GcmError);
}

// --- multi-worker front end -------------------------------------------

namespace
{

/** Registry with two published versions (v2 active, v1 previous). */
const serve::ModelRegistry &
twoVersionRegistry()
{
    static const serve::ModelRegistry *registry = [] {
        auto *r = new serve::ModelRegistry;
        std::stringstream s1, s2;
        testModel().serialize(s1);
        testModel().serialize(s2);
        r->publish(serve::ModelSnapshot::fromStream(s1));
        r->publish(serve::ModelSnapshot::fromStream(s2));
        return r;
    }();
    return *registry;
}

/** Poisson arrival stream at `factor` x the front end's capacity. */
std::vector<serve::Arrival>
overloadArrivals(const serve::ServerFrontEnd &frontend, std::size_t n,
                 std::uint64_t seed, double factor,
                 double bulk_fraction = 0.0)
{
    serve::LoadGenConfig cfg;
    cfg.requests = n;
    cfg.seed = seed;
    cfg.offered_qps = factor * frontend.capacityQps();
    cfg.bulk_fraction = bulk_fraction;
    return serve::generateArrivals(frontend, cfg);
}

/**
 * The report fields covered by the determinism contract — everything
 * except the cache counters, which are scheduling-dependent
 * diagnostics (frontend.hh).
 */
std::string
deterministicDigest(const serve::FrontEndReport &r)
{
    std::ostringstream oss;
    oss << r.workers << '|' << r.offered << '|' << r.ok << '|'
        << r.errors << '|' << r.tier_shed << '|'
        << r.peak_queue_interactive << '|' << r.peak_queue_bulk << '|'
        << r.sim_duration_ms << '|' << r.goodput_qps << '|'
        << r.shed_rate << '|' << r.utilization << '|'
        << r.sojourn_p50_ms << '|' << r.sojourn_p95_ms << '|'
        << r.sojourn_p99_ms;
    return oss.str();
}

/** Whether a rendered response is a shed line (the one tagged kind). */
bool
isShed(const std::string &line)
{
    return line.find("\"degraded\": {\"tier\": \"shed\"}")
           != std::string::npos;
}

} // namespace

TEST(FrontEnd, RunIsReproducible)
{
    serve::FrontEndConfig cfg;
    cfg.workers = 2;
    const auto run = [&] {
        serve::ServerFrontEnd fe(twoVersionRegistry(),
                                 testDeviceTable(), cfg);
        std::vector<std::string> responses;
        const auto arrivals = overloadArrivals(fe, 600, 17, 2.0);
        const auto report = fe.run(arrivals, &responses);
        return std::make_pair(deterministicDigest(report), responses);
    };
    const auto [s1, r1] = run();
    const auto [s2, r2] = run();
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(r1, r2);
    EXPECT_FALSE(r1.empty());
}

TEST(FrontEnd, PerTierPayloadsAreWorkerCountInvariant)
{
    // The shed SET legitimately depends on the worker count (the plan
    // phase consumes it), but whenever two runs both admit the same
    // request the response bytes must match exactly.
    serve::LoadGenConfig gen;
    gen.requests = 400;
    gen.seed = 23;

    // The offered rate is fixed up front, NOT capacity-derived per
    // run: the arrival stream must be identical across worker counts.
    serve::FrontEndConfig one_worker;
    one_worker.workers = 1;
    gen.offered_qps =
        1.8
        * serve::ServerFrontEnd(twoVersionRegistry(), testDeviceTable(),
                                one_worker)
              .capacityQps();

    std::vector<std::vector<std::string>> runs;
    for (const std::size_t workers : {1UL, 2UL, 8UL}) {
        serve::FrontEndConfig cfg;
        cfg.workers = workers;
        serve::ServerFrontEnd fe(twoVersionRegistry(),
                                 testDeviceTable(), cfg);
        const auto arrivals = serve::generateArrivals(fe, gen);
        std::vector<std::string> responses;
        (void)fe.run(arrivals, &responses);
        ASSERT_EQ(responses.size(), gen.requests);
        runs.push_back(std::move(responses));
    }
    std::size_t compared = 0;
    for (std::size_t i = 0; i < gen.requests; ++i) {
        for (std::size_t a = 0; a + 1 < runs.size(); ++a) {
            for (std::size_t b = a + 1; b < runs.size(); ++b) {
                if (isShed(runs[a][i]) || isShed(runs[b][i]))
                    continue;
                EXPECT_EQ(runs[a][i], runs[b][i]) << "request " << i;
                ++compared;
            }
        }
    }
    EXPECT_GT(compared, 0u); // the invariant was actually exercised
}

TEST(FrontEnd, OverloadLadderAccountsExactly)
{
    serve::FrontEndConfig cfg;
    cfg.workers = 2;
    serve::ServerFrontEnd fe(twoVersionRegistry(), testDeviceTable(),
                             cfg);
    std::vector<std::string> responses;
    const auto arrivals = overloadArrivals(fe, 3000, 5, 2.0);
    const auto report = fe.run(arrivals, &responses);

    // The hard acceptance identity: every offered request is either
    // served or shed, never both.
    EXPECT_EQ(report.offered, arrivals.size());
    EXPECT_EQ(report.served() + report.tier_shed, report.offered);

    // 2x overload fills the queue and ends up shedding...
    EXPECT_GT(report.served(), 0u);
    EXPECT_GT(report.tier_shed, 0u);
    EXPECT_GT(report.shed_rate, 0.0);
    // ...while admission control keeps goodput at >= 80% of capacity.
    EXPECT_GE(report.goodput_qps, 0.8 * fe.capacityQps());

    // The rendered stream agrees with the report, line by line, and
    // every admitted response comes from the active version.
    std::size_t sheds = 0;
    for (const auto &line : responses) {
        if (isShed(line)) {
            ++sheds;
            continue;
        }
        EXPECT_NE(line.find("\"model_version\": 2}"), std::string::npos)
            << line;
    }
    EXPECT_EQ(sheds, report.tier_shed);
}

TEST(FrontEnd, EmptyRegistryAnswersNoModel)
{
    // With no active model there is nothing to answer from: every
    // admitted well-formed line is a structured no_model error, and
    // overflow still sheds with its backpressure context.
    serve::FrontEndConfig cfg;
    cfg.workers = 2;
    // The generator needs a model's signature width, so the stream
    // comes from a same-shape front end over a populated registry.
    const auto arrivals = overloadArrivals(
        serve::ServerFrontEnd(twoVersionRegistry(), testDeviceTable(), cfg),
        1500, 9, 2.0, 0.25);
    const serve::ModelRegistry empty;
    serve::ServerFrontEnd fe(empty, testDeviceTable(), cfg);
    std::vector<std::string> responses;
    const auto report = fe.run(arrivals, &responses);

    ASSERT_EQ(responses.size(), arrivals.size());
    EXPECT_EQ(report.ok, 0u);
    EXPECT_EQ(report.errors, report.served());
    EXPECT_GT(report.served(), 0u);
    EXPECT_GT(report.tier_shed, 0u);
    std::size_t sheds = 0;
    for (const auto &line : responses) {
        if (isShed(line)) {
            ++sheds;
            EXPECT_NE(line.find("\"queue_depth\": "), std::string::npos)
                << line;
        } else {
            EXPECT_NE(line.find("\"code\": \"no_model\""),
                      std::string::npos)
                << line;
        }
    }
    EXPECT_EQ(sheds, report.tier_shed);
}

TEST(FrontEnd, ShedResponsesCarryBackpressureContext)
{
    serve::FrontEndConfig cfg;
    cfg.workers = 1;
    cfg.batch_size = 4;
    cfg.queue_capacity = 8;
    serve::ServerFrontEnd fe(twoVersionRegistry(), testDeviceTable(),
                             cfg);
    // A same-instant burst twice the queue capacity: the tail sheds.
    std::vector<serve::Arrival> arrivals;
    for (int i = 0; i < 16; ++i)
        arrivals.push_back({0.0, "{\"id\": \"b" + std::to_string(i)
                                     + "\", \"network\": "
                                       "\"mobilenet_v2_1.0\", "
                                       "\"device\": \""
                                     + firstDeviceName() + "\"}"});
    std::vector<std::string> responses;
    const auto report = fe.run(arrivals, &responses);
    // The first arrival starts a batch at once; the next
    // queue_capacity fill the queue and the rest shed.
    EXPECT_EQ(report.tier_shed, arrivals.size() - cfg.queue_capacity - 1);
    EXPECT_EQ(report.served(), report.offered - report.tier_shed);

    std::size_t sheds = 0;
    for (std::size_t i = 0; i < responses.size(); ++i) {
        const std::string &line = responses[i];
        if (!isShed(line))
            continue;
        ++sheds;
        // Shed lines still echo their request's id, in position.
        EXPECT_NE(line.find("\"id\": \"b" + std::to_string(i) + "\""),
                  std::string::npos)
            << line;
        EXPECT_NE(line.find("\"code\": \"overloaded\""),
                  std::string::npos)
            << line;
        EXPECT_NE(line.find("\"queue_depth\": "), std::string::npos)
            << line;
        EXPECT_NE(line.find("\"retry_after_ms\": "), std::string::npos)
            << line;
    }
    EXPECT_EQ(sheds, report.tier_shed);
}

TEST(FrontEnd, DegradedTagIsVersionGated)
{
    // Only shed lines carry the `degraded` field; every other response
    // lacks it entirely, so old clients parse them unchanged.
    serve::FrontEndConfig cfg;
    cfg.workers = 2;
    serve::ServerFrontEnd fe(twoVersionRegistry(), testDeviceTable(),
                             cfg);
    std::vector<std::string> responses;
    const auto arrivals = overloadArrivals(fe, 1500, 31, 2.0);
    const auto report = fe.run(arrivals, &responses);
    ASSERT_GT(report.served(), 0u);
    ASSERT_GT(report.tier_shed, 0u);
    for (const auto &line : responses) {
        const bool tagged =
            line.find("\"degraded\"") != std::string::npos;
        const bool overloaded =
            line.find("\"code\": \"overloaded\"") != std::string::npos;
        EXPECT_EQ(tagged, overloaded) << line;
    }
    // Other errors stay untagged too.
    const std::string no_model = serve::renderResponse(
        serve::ServeResponse::failure("x", serve::ServeErrorCode::NoModel,
                                      "no active model"));
    EXPECT_EQ(no_model.find("\"degraded\""), std::string::npos)
        << no_model;
}

TEST(FrontEnd, InteractiveDrainsBeforeBulk)
{
    serve::FrontEndConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 256;
    serve::ServerFrontEnd fe(twoVersionRegistry(), testDeviceTable(),
                             cfg);
    // 100 bulk requests land first, then 8 interactive ones in the
    // same instant. Per-class queues and interactive-first dispatch
    // keep the interactive peak depth small, and every request is
    // answered by the model.
    std::vector<serve::Arrival> arrivals;
    for (int i = 0; i < 100; ++i)
        arrivals.push_back(
            {0.0, "{\"id\": \"bulk" + std::to_string(i)
                      + "\", \"network\": \"mobilenet_v2_1.0\", "
                        "\"device\": \""
                      + firstDeviceName()
                      + "\", \"priority\": \"bulk\"}"});
    for (int i = 0; i < 8; ++i)
        arrivals.push_back(
            {0.0, "{\"id\": \"inter" + std::to_string(i)
                      + "\", \"network\": \"mobilenet_v2_1.0\", "
                        "\"device\": \""
                      + firstDeviceName()
                      + "\", \"priority\": \"interactive\"}"});
    std::vector<std::string> responses;
    const auto report = fe.run(arrivals, &responses);
    EXPECT_EQ(report.served(), arrivals.size());
    EXPECT_EQ(report.ok, arrivals.size());
    EXPECT_GT(report.peak_queue_bulk, report.peak_queue_interactive);
    for (std::size_t i = 0; i < responses.size(); ++i) {
        const bool interactive = arrivals[i].line.find("\"inter")
                                 != std::string::npos;
        if (interactive) {
            EXPECT_NE(responses[i].find("\"ok\": true"),
                      std::string::npos)
                << responses[i];
        }
    }
}

TEST(FrontEnd, ConfigValidation)
{
    serve::FrontEndConfig bad;
    bad.queue_capacity = 4;
    bad.batch_size = 8; // capacity < one batch
    EXPECT_THROW(bad.validate(), GcmError);
    bad = {};
    bad.batch_size = 0;
    EXPECT_THROW(bad.validate(), GcmError);
    EXPECT_NO_THROW(serve::FrontEndConfig{}.validate());
}

TEST(FrontEnd, PlanIgnoresConcurrentSwaps)
{
    // The plan reads the registry once, when it pins the active
    // model, so an operator flipping activate() mid-run cannot change
    // the shed set. The loop is bounded by runs; the operator flips
    // until the runs are done, however fast it is.
    serve::ModelRegistry registry;
    std::stringstream s1, s2;
    testModel().serialize(s1);
    testModel().serialize(s2);
    registry.publish(serve::ModelSnapshot::fromStream(s1));
    registry.publish(serve::ModelSnapshot::fromStream(s2));

    serve::FrontEndConfig cfg;
    cfg.workers = 2;
    serve::ServerFrontEnd fe(registry, testDeviceTable(), cfg);
    // 2x capacity. All but one in 64 requests name an unknown device
    // and fail fast when executed, so planning is most of each run
    // and a swap has every chance to land inside a plan.
    std::vector<serve::Arrival> arrivals;
    const double step_ms = 500.0 / fe.capacityQps();
    for (int i = 0; i < 20000; ++i) {
        const std::string device = i % 64 == 0 ? firstDeviceName() : "nope";
        arrivals.push_back(
            {i * step_ms, "{\"id\": \"n" + std::to_string(i)
                              + "\", \"network\": \"mobilenet_v2_1.0\", "
                                "\"device\": \""
                              + device + "\"}"});
    }
    const std::string expected =
        deterministicDigest(fe.run(arrivals, nullptr));

    std::atomic<bool> done{false};
    std::thread operator_thread([&] {
        for (int i = 0; !done.load(); ++i)
            registry.activate(1 + (i % 2));
    });
    for (int run = 0; run < 8; ++run) {
        std::vector<std::string> responses;
        const auto report = fe.run(arrivals, &responses);
        EXPECT_EQ(deterministicDigest(report), expected) << "run " << run;
        // Every model-backed line of one run carries one version.
        std::set<std::string> versions;
        for (const auto &line : responses) {
            const auto at = line.find("\"model_version\": ");
            if (at != std::string::npos)
                versions.insert(line.substr(at, line.find('}', at) - at));
        }
        EXPECT_EQ(versions.size(), 1u) << "run " << run;
    }
    done.store(true);
    operator_thread.join();
}

TEST(FrontEnd, RetireDuringInFlightBatchKeepsPinnedSnapshot)
{
    // Satellite 2 regression: a batch pins the active snapshot, then
    // the operator rolls back AND retires that version mid-flight.
    // The pinned shared_ptr must keep the snapshot alive.
    serve::ModelRegistry registry;
    std::stringstream s1, s2;
    testModel().serialize(s1);
    testModel().serialize(s2);
    registry.publish(serve::ModelSnapshot::fromStream(s1));
    const auto v2 =
        registry.publish(serve::ModelSnapshot::fromStream(s2));

    serve::PredictionService service(registry, testDeviceTable(), {});
    const auto pinned = registry.active(); // v2, as a batch would pin
    ASSERT_EQ(pinned.version, v2);

    registry.rollback();  // active back to v1
    registry.retire(v2);  // v2 gone from the registry...
    EXPECT_EQ(registry.snapshot(v2), nullptr);

    // ...but the in-flight batch still serves on its pinned version.
    const std::vector<serve::ServeRequest> batch = {
        networkRequest("pin", "mobilenet_v2_1.0", firstDeviceName())};
    const auto responses = service.processBatch(batch, pinned);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_TRUE(responses[0].ok) << responses[0].error_message;
    EXPECT_EQ(responses[0].model_version, v2);

    EXPECT_THROW(registry.retire(registry.activeVersion()), GcmError);
    EXPECT_THROW(registry.retire(99), GcmError);
}

TEST(FrontEnd, SurvivesConcurrentRollbackAndRetire)
{
    // Run under TSan: an operator thread churns activations while the
    // front end serves; the run-pinned snapshots keep every payload
    // on a complete version even as versions are swapped and retired.
    serve::ModelRegistry registry;
    std::stringstream s1, s2;
    testModel().serialize(s1);
    testModel().serialize(s2);
    registry.publish(serve::ModelSnapshot::fromStream(s1));
    const auto v2 =
        registry.publish(serve::ModelSnapshot::fromStream(s2));

    serve::FrontEndConfig cfg;
    cfg.workers = 4;
    serve::ServerFrontEnd fe(registry, testDeviceTable(), cfg);

    std::atomic<bool> stop{false};
    std::thread operator_thread([&] {
        for (int i = 0; i < 100; ++i) {
            registry.activate(1 + (i % 2));
            std::this_thread::yield();
        }
        registry.activate(1);
        registry.retire(v2);
        stop.store(true);
    });
    // Run until the operator is done and a minimum of work is in.
    constexpr std::size_t kMinRuns = 4;
    std::size_t runs = 0;
    while (!stop.load() || runs < kMinRuns) {
        const auto arrivals = overloadArrivals(fe, 64, runs, 1.0);
        std::vector<std::string> responses;
        const auto report = fe.run(arrivals, &responses);
        EXPECT_EQ(report.offered, arrivals.size());
        for (const auto &line : responses)
            EXPECT_NE(line.find("\"id\""), std::string::npos) << line;
        ++runs;
    }
    operator_thread.join();
    EXPECT_GT(runs, 0u);
}

TEST(FrontEnd, LoopHandlesHostileInputAtAnyWorkerCount)
{
    // Satellite 3: truncated JSON, an oversized line and interleaved
    // valid/invalid lines through the streaming loop. At every worker
    // count: one complete response line per input line, in input
    // order, never torn.
    std::string oversized = "{\"id\": \"big\", \"network\": \"";
    oversized.append(serve::kMaxRequestLineBytes, 'a');
    oversized += "\", \"device\": \"d\"}";
    const std::vector<std::string> lines = {
        "{\"id\": \"ok1\", \"network\": \"mobilenet_v2_1.0\", "
        "\"device\": \"" + firstDeviceName() + "\"}",
        "{\"id\": \"trunc", // truncated mid-string
        oversized,
        "{\"id\": \"ok2\", \"network\": \"mnasnet_a1\", \"device\": \""
            + firstDeviceName() + "\"}",
        "{}",
        "{\"id\": \"ok3\", \"network\": \"mobilenet_v2_1.0\", "
        "\"device\": \"" + firstDeviceName()
            + "\", \"priority\": \"bulk\"}",
    };
    std::string expected_first; // responses must not vary by workers
    for (const std::size_t workers : {1UL, 2UL, 8UL}) {
        serve::FrontEndConfig cfg;
        cfg.workers = workers;
        serve::ServerFrontEnd fe(twoVersionRegistry(),
                                 testDeviceTable(), cfg);
        std::stringstream in, out;
        for (const auto &line : lines)
            in << line << "\n";
        const std::size_t n = serve::runFrontEndLoop(fe, in, out);
        EXPECT_EQ(n, lines.size());

        const std::vector<std::string> responses = splitLines(out.str());
        ASSERT_EQ(responses.size(), lines.size()) << "workers="
                                                  << workers;
        // Order: each ok id answers at its own index; error lines are
        // complete JSON objects (no torn writes).
        EXPECT_NE(responses[0].find("\"id\": \"ok1\""),
                  std::string::npos);
        EXPECT_NE(responses[1].find("bad_request"), std::string::npos);
        EXPECT_NE(responses[2].find("byte limit"), std::string::npos);
        EXPECT_NE(responses[3].find("\"id\": \"ok2\""),
                  std::string::npos);
        EXPECT_NE(responses[4].find("bad_request"), std::string::npos);
        EXPECT_NE(responses[5].find("\"id\": \"ok3\""),
                  std::string::npos);
        for (const auto &line : responses) {
            ASSERT_FALSE(line.empty());
            EXPECT_EQ(line.front(), '{');
            EXPECT_EQ(line.back(), '}');
        }
        if (expected_first.empty())
            expected_first = out.str();
        else
            EXPECT_EQ(out.str(), expected_first)
                << "workers=" << workers;
    }
}

TEST(FrontEnd, WindowedLoopMatchesDirectServing)
{
    // A stream longer than one window, all interactive, at the
    // default arrival rate: every request is admitted, so the loop must print exactly what processBatch +
    // renderResponse print for the same lines, at any worker count.
    serve::LoadGenConfig gen;
    gen.requests = serve::kServeWindowLines + 700;
    gen.seed = 3;
    gen.offered_qps = 100.0;
    const serve::ServerFrontEnd gen_fe(testRegistry(), testDeviceTable(),
                                       {});
    std::vector<std::string> lines;
    for (const auto &a : serve::generateArrivals(gen_fe, gen))
        lines.push_back(a.line);
    gen.requests = 300;
    gen.mix = serve::LoadMix::UniqueHeavy;
    for (const auto &a : serve::generateArrivals(gen_fe, gen))
        lines.push_back(a.line);
    for (std::size_t i = 0; i < lines.size(); i += 997)
        lines[i] = "{\"id\": \"broken" + std::to_string(i);

    std::string input;
    for (const auto &line : lines)
        input += line + "\n";

    serve::PredictionService service(testRegistry(), testDeviceTable(),
                                     {});
    std::vector<serve::ServeRequest> requests(lines.size());
    std::vector<std::string> errors(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
        errors[i] = serve::tryParseRequest(lines[i], requests[i]);
    const auto served = service.processBatch(requests);
    std::string expected;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        expected += serve::renderResponse(
                        errors[i].empty()
                            ? served[i]
                            : serve::ServeResponse::failure(
                                  requests[i].id,
                                  serve::ServeErrorCode::BadRequest,
                                  errors[i]))
                    + "\n";
    }

    for (const std::size_t workers : {1UL, 4UL}) {
        serve::FrontEndConfig cfg;
        cfg.workers = workers;
        serve::ServerFrontEnd fe(testRegistry(), testDeviceTable(), cfg);
        std::istringstream in(input);
        std::ostringstream out;
        EXPECT_EQ(serve::runFrontEndLoop(fe, in, out), lines.size());
        EXPECT_EQ(out.str(), expected) << "workers=" << workers;
    }
}

TEST(FrontEnd, OpenLoadGenIsDeterministic)
{
    serve::LoadGenConfig cfg;
    cfg.requests = 500;
    cfg.seed = 11;
    cfg.bulk_fraction = 0.3;
    const auto run = [&] {
        serve::FrontEndConfig fcfg;
        fcfg.workers = 2;
        serve::ServerFrontEnd fe(twoVersionRegistry(),
                                 testDeviceTable(), fcfg);
        serve::LoadGenConfig c = cfg;
        c.offered_qps = 2.0 * fe.capacityQps();
        std::ostringstream out;
        const auto report = serve::runOpenLoadGen(fe, c, &out);
        // The cache counters are the one scheduling-dependent part of
        // the summary (frontend.hh), so compare the deterministic
        // digest alongside the full response stream.
        EXPECT_NE(report.summary().find("goodput"),
                  std::string::npos);
        EXPECT_NE(report.summary().find("cache:"),
                  std::string::npos);
        return std::make_pair(deterministicDigest(report),
                              out.str());
    };
    const auto [sum1, out1] = run();
    const auto [sum2, out2] = run();
    EXPECT_EQ(sum1, sum2);
    EXPECT_EQ(out1, out2);

    // The arrival stream itself: sorted times, ~bulk_fraction tagged,
    // and priority tagging never perturbs the request bodies.
    serve::FrontEndConfig fcfg;
    fcfg.workers = 2;
    serve::ServerFrontEnd fe(twoVersionRegistry(), testDeviceTable(),
                             fcfg);
    auto c = cfg;
    c.offered_qps = 100.0;
    const auto arrivals = serve::generateArrivals(fe, c);
    ASSERT_EQ(arrivals.size(), cfg.requests);
    std::size_t bulk = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        if (i > 0) {
            EXPECT_GE(arrivals[i].time_ms, arrivals[i - 1].time_ms);
        }
        bulk += arrivals[i].line.find("\"priority\": \"bulk\"")
                != std::string::npos;
    }
    EXPECT_GT(bulk, arrivals.size() / 5);
    EXPECT_LT(bulk, arrivals.size() / 2);
    EXPECT_THROW(
        (void)serve::generateArrivals(
            fe, [] { auto b = serve::LoadGenConfig{}; b.offered_qps = -1.0; return b; }()),
        GcmError);
}

TEST(Registry, LifecycleEmitsObsMetrics)
{
    // §8 zero-perturbation: metrics are plain counter/gauge writes at
    // the registry's mutation points, so with collection enabled every
    // lifecycle step must account exactly — and the counters must stay
    // flat while collection is off.
    obs::reset();
    obs::setEnabled(true);
    const auto publishes0 =
        obs::counterValue("serve.registry.publishes");
    const auto rollbacks0 =
        obs::counterValue("serve.registry.rollbacks");
    const auto retires0 = obs::counterValue("serve.registry.retires");
    const auto activates0 =
        obs::counterValue("serve.registry.activates");

    serve::ModelRegistry registry;
    std::stringstream s1, s2;
    testModel().serialize(s1);
    testModel().serialize(s2);
    const auto v1 =
        registry.publish(serve::ModelSnapshot::fromStream(s1));
    (void)registry.publish(serve::ModelSnapshot::fromStream(s2));
    registry.activate(v1); // v2 -> v1
    registry.rollback();   // back to v2
    registry.retire(v1);   // v1 is no longer active: retirable

    EXPECT_EQ(obs::counterValue("serve.registry.publishes"),
              publishes0 + 2);
    EXPECT_EQ(obs::counterValue("serve.registry.rollbacks"),
              rollbacks0 + 1);
    EXPECT_EQ(obs::counterValue("serve.registry.retires"),
              retires0 + 1);
    EXPECT_EQ(obs::counterValue("serve.registry.activates"),
              activates0 + 1);

    // Gauges track the latest registry state in the perf report.
    const std::string report = obs::reportJson();
    EXPECT_NE(report.find("serve.registry.active_version"),
              std::string::npos);
    EXPECT_NE(report.find("serve.registry.snapshots"),
              std::string::npos);

    // Disabled collection leaves the counters untouched.
    obs::setEnabled(false);
    std::stringstream s3;
    testModel().serialize(s3);
    (void)registry.publish(serve::ModelSnapshot::fromStream(s3));
    obs::setEnabled(true);
    EXPECT_EQ(obs::counterValue("serve.registry.publishes"),
              publishes0 + 2);
    obs::setEnabled(false);
    obs::reset();
}
