/**
 * @file
 * Pure input generation: every function here is a function of the
 * run seed (and of tables the library builds deterministically), so
 * the same seed gives byte-identical request lines and device split.
 * perfbench_tests.cc pins this.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <set>

#include "bench.hh"
#include "dnn/fingerprint.hh"
#include "dnn/generator.hh"
#include "dnn/quantize.hh"
#include "dnn/serialize.hh"
#include "dnn/zoo.hh"
#include "util/json.hh"
#include "util/rng.hh"

namespace perfbench
{

using gcm::Rng;

namespace
{

/** Independent streams of one run seed. */
enum Stream : std::uint64_t
{
    kSplitStream = 1,
    kHotStream = 2,
    kColdStream = 3,
    kUnseenStream = 4,
};

Rng
streamOf(std::uint64_t seed, Stream s)
{
    return Rng(seed).fork(s);
}

/** Seed of the training suite's generated networks (ExperimentConfig). */
constexpr std::uint64_t kSuiteNetworkSeed = 123;

/*
 * Traffic shapes. Each parameter is taken from the code path the
 * workload stands for; the two that have no source in the repository
 * are marked as assumptions.
 *
 * serve-hot: serve/loadgen's duplicate-heavy mix, LoadGenConfig's
 * default pool of 16 (network, device) pairs drawn with replacement
 * and weighted 1/(rank + 1).
 */
constexpr std::size_t kHotPool = 16;
/** serve-hot: request lines per input cycle (a length, not a shape). */
constexpr std::size_t kHotLines = 4096;
/**
 * serve-cold: request lines per input cycle. Every line is a new key,
 * and twice the default cache capacity (ServiceConfig, 4096) in a cycle
 * makes every request of the timed phase miss and evict.
 */
constexpr std::size_t kColdLines = 8192;
/**
 * serve-unseen: ArchitectureSearch's request shape, with SearchConfig's
 * defaults. One input cycle is one search of kGenerations generations,
 * and one batch is one generation: kPopulation candidates, each asked
 * on every device of a fixed list, candidate-major. Generation 0 is all
 * new; each later one sends again the kElite elites of the generation
 * before it (here its first kElite new candidates) and kPopulation -
 * kElite new ones. The device list is the cluster of the README's
 * `gcm search --devices` example.
 */
constexpr std::size_t kPopulation = 32;
constexpr std::size_t kElite = 4;
constexpr std::size_t kGenerations = 8;
const char *const kSearchDevices[] = {"Redmi-Note-7", "Galaxy-A50", "Mi-9"};

/**
 * serve-cold: sigma of the lognormal jitter on each signature entry.
 * Assumption: a device's signature measured again in another session,
 * i.e. the simulator's per-session noise (NoiseParams::
 * session_jitter_sigma). No source gives the real spread of client
 * signatures.
 */
constexpr double kColdJitterSigma = 0.08;

std::vector<std::string>
deviceNames(const gcm::serve::PredictionService::DeviceTable &table)
{
    std::vector<std::string> names;
    names.reserve(table.size());
    for (const auto &entry : table)
        names.push_back(entry.first);
    return names;
}

template <typename T>
const T &
pick(const std::vector<T> &v, Rng &rng)
{
    return v[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(v.size()) - 1))];
}

void
makeHot(ServeInputs &in, Rng &rng, const std::vector<std::string> &devices)
{
    const auto &zoo = gcm::dnn::zooModelNames();
    std::vector<Query> pool(kHotPool);
    std::vector<double> weights(kHotPool);
    for (std::size_t r = 0; r < kHotPool; ++r) {
        pool[r].network = pick(zoo, rng);
        pool[r].device = pick(devices, rng);
        weights[r] = 1.0 / static_cast<double>(r + 1);
    }
    for (std::size_t i = 0; i < kHotLines; ++i)
        in.queries.push_back(pool[rng.weightedIndex(weights)]);
}

void
makeCold(ServeInputs &in, Rng &rng,
         const gcm::serve::PredictionService::DeviceTable &table)
{
    const auto &zoo = gcm::dnn::zooModelNames();
    const std::vector<std::string> devices = deviceNames(table);
    for (std::size_t i = 0; i < kColdLines; ++i) {
        Query q;
        q.network = pick(zoo, rng);
        q.device = pick(devices, rng);
        q.signature = table.at(q.device);
        for (double &ms : q.signature)
            ms *= rng.lognormalFactor(kColdJitterSigma);
        in.queries.push_back(std::move(q));
    }
}

void
makeUnseen(ServeInputs &in, Rng &rng)
{
    std::uint64_t gen_seed = rng.next();
    if (gen_seed == kSuiteNetworkSeed)
        ++gen_seed;
    gcm::dnn::RandomNetworkGenerator gen(gcm::dnn::SearchSpace{},
                                         gen_seed);
    std::vector<std::size_t> fresh; // the previous generation's new ones
    for (std::size_t g = 0; g < kGenerations; ++g) {
        std::vector<std::size_t> nets(fresh.begin(),
                                      fresh.begin()
                                          + static_cast<std::ptrdiff_t>(
                                              std::min(kElite, fresh.size())));
        fresh.clear();
        while (nets.size() < kPopulation) {
            fresh.push_back(in.graphs.size());
            nets.push_back(in.graphs.size());
            in.graphs.push_back(
                gen.generate("unseen_" + std::to_string(in.graphs.size())));
            in.texts.push_back(gcm::dnn::graphToText(in.graphs.back()));
        }
        for (std::size_t net : nets) {
            for (const char *device : kSearchDevices) {
                Query q;
                q.graph = static_cast<int>(net);
                q.device = device;
                in.queries.push_back(std::move(q));
            }
        }
    }
    in.batch = kPopulation * std::size(kSearchDevices);
    in.new_search_per_cycle = true;
}

} // namespace

gcm::core::DeviceSplit
paperSplit(std::uint64_t seed, std::size_t num_devices)
{
    return gcm::core::splitDevices(num_devices, 0.3,
                                   streamOf(seed, kSplitStream).next());
}

ServeInputs
makeServeInputs(Workload w, std::uint64_t seed,
                const gcm::serve::PredictionService::DeviceTable &table)
{
    ServeInputs in;
    switch (w) {
      case Workload::ServeHot: {
        Rng rng = streamOf(seed, kHotStream);
        makeHot(in, rng, deviceNames(table));
        break;
      }
      case Workload::ServeCold: {
        Rng rng = streamOf(seed, kColdStream);
        makeCold(in, rng, table);
        break;
      }
      case Workload::ServeUnseen: {
        Rng rng = streamOf(seed, kUnseenStream);
        makeUnseen(in, rng);
        break;
      }
      case Workload::TrainPaper:
        break;
    }
    in.lines.reserve(in.queries.size());
    for (std::size_t i = 0; i < in.queries.size(); ++i)
        in.lines.push_back(renderRequestLine(in.queries[i], in, i));
    return in;
}

std::string
renderRequestLine(const Query &q, const ServeInputs &in, std::size_t id)
{
    std::string line = "{\"id\": \"q" + std::to_string(id) + "\", ";
    if (q.graph >= 0) {
        line += "\"graph\": ";
        gcm::json::appendJsonString(
            line, in.texts[static_cast<std::size_t>(q.graph)]);
    } else {
        line += "\"network\": ";
        gcm::json::appendJsonString(line, q.network);
    }
    if (q.signature.empty()) {
        line += ", \"device\": ";
        gcm::json::appendJsonString(line, q.device);
    } else {
        line += ", \"signature\": [";
        for (std::size_t k = 0; k < q.signature.size(); ++k) {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%s%.17g", k ? ", " : "",
                          q.signature[k]);
            line += buf;
        }
        line += "]";
    }
    return line + "}";
}

std::size_t
suiteCollisions(const ServeInputs &in,
                const std::vector<gcm::dnn::Graph> &suite)
{
    // Compare the deployment (int8) forms: the suite is int8 and the
    // service quantizes inline fp32 graphs before fingerprinting.
    std::set<std::uint64_t> suite_fps;
    for (const auto &g : suite)
        suite_fps.insert(gcm::dnn::graphFingerprint(g));
    std::size_t hits = 0;
    for (const auto &g : in.graphs) {
        if (suite_fps.count(
                gcm::dnn::graphFingerprint(gcm::dnn::quantize(g))))
            ++hits;
    }
    return hits;
}

} // namespace perfbench
