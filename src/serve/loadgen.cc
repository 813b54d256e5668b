#include "serve/loadgen.hh"

#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "dnn/zoo.hh"
#include "util/error.hh"
#include "util/json.hh"
#include "util/rng.hh"

namespace gcm::serve
{

LoadMix
parseLoadMix(const std::string &name)
{
    if (name == "duplicate")
        return LoadMix::DuplicateHeavy;
    if (name == "unique")
        return LoadMix::UniqueHeavy;
    fatal("loadgen: unknown mix '", name, "' (duplicate|unique)");
}

void
LoadGenConfig::validate() const
{
    if (requests == 0)
        fatal("loadgen: requests must be >= 1");
    if (pool_size == 0)
        fatal("loadgen: pool_size must be >= 1");
    if (!(offered_qps > 0.0))
        fatal("loadgen: offered_qps must be > 0");
    if (bulk_fraction < 0.0 || bulk_fraction > 1.0)
        fatal("loadgen: bulk_fraction must be in [0, 1]");
}

namespace
{

/**
 * The request-body generator. Request i is tagged
 * `"priority": "bulk"` where bulk[i]; the flags are drawn from their
 * own forked stream by the caller, so the body byte stream for a
 * given (seed, mix) is identical at any bulk_fraction.
 */
std::vector<std::string>
generateLines(Rng &rng, std::size_t sig_width,
              const std::vector<std::string> &device_names,
              const LoadGenConfig &config, const std::vector<bool> &bulk)
{
    const std::vector<std::string> &zoo = dnn::zooModelNames();
    std::vector<std::string> lines;
    lines.reserve(config.requests);
    const auto priorityTag = [&](std::size_t i) {
        return bulk[i] ? std::string(", \"priority\": \"bulk\"")
                       : std::string();
    };

    if (config.mix == LoadMix::DuplicateHeavy) {
        if (device_names.empty()) {
            fatal("loadgen: the duplicate-heavy mix needs a non-empty "
                  "device table");
        }
        // A fixed pool of (network, device) pairs, drawn with a
        // skewed weighting so a few pairs dominate — the typical NAS
        // search hammering one device with candidate re-queries.
        struct Pair
        {
            std::string network;
            std::string device;
        };
        std::vector<Pair> pool;
        std::vector<double> weights;
        pool.reserve(config.pool_size);
        for (std::size_t p = 0; p < config.pool_size; ++p) {
            pool.push_back(
                {zoo[static_cast<std::size_t>(rng.uniformInt(
                     0, static_cast<std::int64_t>(zoo.size()) - 1))],
                 device_names[static_cast<std::size_t>(rng.uniformInt(
                     0,
                     static_cast<std::int64_t>(device_names.size())
                         - 1))]});
            weights.push_back(1.0 / static_cast<double>(p + 1));
        }
        for (std::size_t i = 0; i < config.requests; ++i) {
            const Pair &pick = pool[rng.weightedIndex(weights)];
            std::string line = "{\"id\": ";
            json::appendJsonString(line, "q" + std::to_string(i));
            line += ", \"network\": ";
            json::appendJsonString(line, pick.network);
            line += ", \"device\": ";
            json::appendJsonString(line, pick.device);
            line += priorityTag(i) + "}";
            lines.push_back(std::move(line));
        }
        return lines;
    }

    // Unique-heavy: every request carries a fresh raw signature
    // vector, so no two requests can share a cache entry.
    std::ostringstream num;
    num.precision(std::numeric_limits<double>::max_digits10);
    for (std::size_t i = 0; i < config.requests; ++i) {
        const std::string &network =
            zoo[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(zoo.size()) - 1))];
        std::string line = "{\"id\": ";
        json::appendJsonString(line, "q" + std::to_string(i));
        line += ", \"network\": ";
        json::appendJsonString(line, network);
        line += ", \"signature\": [";
        for (std::size_t k = 0; k < sig_width; ++k) {
            num.str("");
            num << rng.uniform(0.5, 50.0);
            if (k)
                line += ", ";
            line += num.str();
        }
        line += "]" + priorityTag(i) + "}";
        lines.push_back(std::move(line));
    }
    return lines;
}

} // namespace

std::vector<Arrival>
generateArrivals(const ServerFrontEnd &frontend,
                 const LoadGenConfig &config)
{
    config.validate();
    const auto active = frontend.registry().active();
    if (!active)
        fatal("loadgen: the registry has no active model");
    const std::size_t sig_width =
        active.snapshot->costModel().signatureNames().size();
    std::vector<std::string> names; // device names, in map order
    for (const auto &[name, sig] : frontend.deviceTable())
        names.push_back(name);

    // Independent forked streams so bodies, priorities and arrival
    // gaps never perturb each other's draws (and the body stream
    // stays comparable across bulk_fraction settings).
    const Rng base(config.seed);
    Rng body_rng = base.fork(1);
    Rng prio_rng = base.fork(2);
    Rng time_rng = base.fork(3);

    std::vector<bool> bulk(config.requests, false);
    if (config.bulk_fraction > 0.0) {
        for (std::size_t i = 0; i < config.requests; ++i)
            bulk[i] = prio_rng.uniform() < config.bulk_fraction;
    }
    std::vector<std::string> lines =
        generateLines(body_rng, sig_width, names, config, bulk);

    // Poisson process on the simulated clock: exponential
    // inter-arrival gaps with mean 1/offered_qps.
    const double rate_per_ms = config.offered_qps / 1000.0;
    std::vector<Arrival> arrivals;
    arrivals.reserve(lines.size());
    double t = 0.0;
    for (std::string &line : lines) {
        double u = time_rng.uniform();
        if (u >= 1.0)
            u = 0.5; // uniform() is [0,1); belt and braces
        t += -std::log(1.0 - u) / rate_per_ms;
        arrivals.push_back({t, std::move(line)});
    }
    return arrivals;
}

FrontEndReport
runOpenLoadGen(ServerFrontEnd &frontend, const LoadGenConfig &config,
               std::ostream *responses_out)
{
    std::vector<std::string> responses;
    const FrontEndReport report =
        frontend.run(generateArrivals(frontend, config),
                     responses_out != nullptr ? &responses : nullptr);
    if (responses_out != nullptr) {
        for (const std::string &r : responses)
            *responses_out << r << '\n';
        responses_out->flush();
    }
    return report;
}

} // namespace gcm::serve
