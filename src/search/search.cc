#include "search/search.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "dnn/analysis.hh"
#include "dnn/fingerprint.hh"
#include "dnn/quantize.hh"
#include "obs/obs.hh"
#include "search/genome_ops.hh"
#include "util/error.hh"
#include "util/json.hh"
#include "util/parallel.hh"
#include "verify/verifier.hh"

namespace gcm::search
{

void
validateSearchConfig(const SearchConfig &config,
                     const serve::PredictionService &service)
{
    if (!std::isfinite(config.budget_ms) || config.budget_ms <= 0.0)
        fatal("search: budget_ms must be finite and positive, got ",
              config.budget_ms);
    if (config.devices.empty())
        fatal("search: at least one device is required");
    for (const std::string &d : config.devices) {
        if (service.deviceTable().find(d)
            == service.deviceTable().end())
            fatal("search: unknown device '", d, "'");
    }
    if (config.population < 2)
        fatal("search: population must be >= 2, got ",
              config.population);
    if (config.generations < 1)
        fatal("search: generations must be >= 1");
    if (config.elite >= config.population)
        fatal("search: elite (", config.elite,
              ") must be < population (", config.population, ")");
    if (config.tournament < 1)
        fatal("search: tournament must be >= 1");
    if (!(config.crossover_probability >= 0.0
          && config.crossover_probability <= 1.0))
        fatal("search: crossover_probability must be in [0, 1]");
    if (!service.registry().active())
        fatal("search: the service has no active model");
}

namespace
{

/** One candidate's evaluation-time scratch (graph built off-genome). */
struct Built
{
    dnn::Graph graph;       // deployment (Int8) graph
    std::uint64_t fp = 0;
    double mmacs = 0.0;
    std::int64_t params = 0;
    std::string error;      // non-empty -> rejected before pricing

    bool ok() const { return error.empty(); }
};

/**
 * Selection fitness. Any feasible candidate outranks any infeasible
 * one: feasible fitness is mmacs (> 0), infeasible is budget - worst
 * (< 0, less negative = closer to budget). Unpriced candidates sink
 * to the bottom.
 */
double
fitnessOf(const Candidate &c, bool priced, double budget_ms)
{
    if (!priced)
        return -std::numeric_limits<double>::infinity();
    return c.feasible(budget_ms) ? c.mmacs
                                 : budget_ms - c.worst_latency_ms;
}

/** c weakly dominates d on (worst-case latency min, mmacs max). */
bool
dominates(const Candidate &c, const Candidate &d)
{
    return c.worst_latency_ms <= d.worst_latency_ms
        && c.mmacs >= d.mmacs;
}

/**
 * Insert a feasible candidate into the Pareto archive: skipped when
 * any member weakly dominates it (an equal point keeps its first-seen
 * representative — deterministic because insertion order is candidate
 * order), otherwise evicts everything it dominates. Returns whether
 * the candidate joined.
 */
bool
archiveInsert(std::vector<Candidate> &archive, const Candidate &c)
{
    for (const Candidate &m : archive) {
        if (dominates(m, c))
            return false;
    }
    std::erase_if(archive,
                  [&](const Candidate &m) { return dominates(c, m); });
    archive.push_back(c);
    return true;
}

} // namespace

ArchitectureSearch::ArchitectureSearch(serve::PredictionService &service,
                                       SearchConfig config)
    : service_(service), config_(std::move(config))
{
}

SearchResult
ArchitectureSearch::run()
{
    validateSearchConfig(config_, service_);
    const std::size_t pop = config_.population;
    const std::size_t n_dev = config_.devices.size();
    const double budget = config_.budget_ms;
    const Rng root(config_.seed);

    SearchResult result;
    result.model_version = service_.registry().active().version;

    std::vector<dnn::ArchGenome> genomes(pop);
    std::vector<Candidate> current;   // last evaluated generation
    std::vector<double> fitness;      // aligned with current
    std::vector<Candidate> archive;   // Pareto front, feasible only
    double best_lat =
        std::numeric_limits<double>::infinity(); // any candidate
    double best_mmacs = 0.0;                     // feasible only

    for (std::size_t gen = 0; gen < config_.generations; ++gen) {
        // --- 1. Breed this generation's genomes (serial; candidate i
        // of generation g draws only from stream g * pop + i).
        if (gen == 0) {
            for (std::size_t i = 0; i < pop; ++i) {
                Rng rng = root.fork(i);
                genomes[i] = dnn::sampleGenome(config_.space, rng);
            }
        } else {
            // Deterministic fitness ranking of the previous
            // generation, fingerprint then index breaking ties.
            std::vector<std::size_t> order(pop);
            for (std::size_t i = 0; i < pop; ++i)
                order[i] = i;
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          if (fitness[a] != fitness[b])
                              return fitness[a] > fitness[b];
                          if (current[a].fingerprint
                              != current[b].fingerprint)
                              return current[a].fingerprint
                                  < current[b].fingerprint;
                          return a < b;
                      });
            const auto better = [&](std::size_t a, std::size_t b) {
                if (fitness[a] != fitness[b])
                    return fitness[a] > fitness[b];
                if (current[a].fingerprint != current[b].fingerprint)
                    return current[a].fingerprint
                        < current[b].fingerprint;
                return a < b;
            };
            std::vector<dnn::ArchGenome> next(pop);
            for (std::size_t i = 0; i < config_.elite; ++i)
                next[i] = current[order[i]].genome;
            for (std::size_t i = config_.elite; i < pop; ++i) {
                Rng rng = root.fork(gen * pop + i);
                const auto tourney = [&]() {
                    std::size_t best = static_cast<std::size_t>(
                        rng.uniformInt(
                            0, static_cast<std::int64_t>(pop) - 1));
                    for (std::size_t t = 1; t < config_.tournament;
                         ++t) {
                        const auto c = static_cast<std::size_t>(
                            rng.uniformInt(
                                0,
                                static_cast<std::int64_t>(pop) - 1));
                        if (better(c, best))
                            best = c;
                    }
                    return best;
                };
                const std::size_t pa = tourney();
                if (rng.bernoulli(config_.crossover_probability)) {
                    const std::size_t pb = tourney();
                    next[i] = mutateGenome(
                        crossoverGenomes(current[pa].genome,
                                         current[pb].genome,
                                         config_.space, rng),
                        config_.space, rng);
                } else {
                    next[i] = mutateGenome(current[pa].genome,
                                           config_.space, rng);
                }
            }
            genomes = std::move(next);
        }

        // --- 2. Lower genomes to deployment graphs in parallel
        // (ordered parallelMap; each task touches only its genome).
        const std::string gen_tag = "cand-g" + std::to_string(gen);
        std::vector<Built> built =
            parallelMap(pop, 1, [&](std::size_t i) {
                Built b;
                try {
                    dnn::validateGenome(genomes[i], config_.space);
                    dnn::Graph g = dnn::buildGenome(
                        genomes[i], config_.space,
                        gen_tag + "-i" + std::to_string(i));
                    verify::verifyGraphOrThrow(g, "search");
                    b.graph = dnn::quantize(g);
                    b.fp = dnn::graphFingerprint(b.graph);
                    b.mmacs = dnn::megaMacs(b.graph);
                    b.params = dnn::totalParams(b.graph);
                } catch (const GcmError &e) {
                    b.error = e.what();
                }
                return b;
            });

        // --- 3. Price every (candidate, device) pair through the
        // serving stack in one batch: the all-unique fingerprint mix
        // misses, elites and converged offspring hit.
        std::vector<serve::ServeRequest> requests;
        requests.reserve(pop * n_dev);
        for (std::size_t i = 0; i < pop; ++i) {
            if (!built[i].ok())
                continue;
            for (std::size_t d = 0; d < n_dev; ++d) {
                serve::ServeRequest req;
                req.id = std::to_string(i) + ":" + std::to_string(d);
                req.graph_ptr = &built[i].graph;
                req.device = config_.devices[d];
                requests.push_back(std::move(req));
                GCM_OBS_GUARDED(obs::counterAdd("search.requests"));
            }
        }
        const std::vector<serve::ServeResponse> responses =
            service_.processBatch(requests);

        // --- 4. Serial epilogue: fold responses into candidates,
        // update the archive and the generation log in index order.
        current.assign(pop, Candidate{});
        fitness.assign(pop, 0.0);
        GenerationLog row;
        row.generation = static_cast<std::uint32_t>(gen);
        std::size_t resp_at = 0;
        for (std::size_t i = 0; i < pop; ++i) {
            Candidate &c = current[i];
            c.genome = genomes[i];
            c.generation = static_cast<std::uint32_t>(gen);
            c.index = static_cast<std::uint32_t>(i);
            bool priced = built[i].ok();
            if (priced) {
                c.fingerprint = built[i].fp;
                c.mmacs = built[i].mmacs;
                c.params = built[i].params;
                c.latency_ms.resize(n_dev);
                c.worst_latency_ms = 0.0;
                for (std::size_t d = 0; d < n_dev; ++d) {
                    const serve::ServeResponse &r =
                        responses[resp_at++];
                    if (!r.ok) {
                        priced = false;
                        continue;
                    }
                    c.latency_ms[d] = r.latency_ms;
                    c.worst_latency_ms =
                        std::max(c.worst_latency_ms, r.latency_ms);
                }
            }
            fitness[i] = fitnessOf(c, priced, budget);
            if (!priced) {
                result.candidates_rejected += 1;
                GCM_OBS_GUARDED(
                    obs::counterAdd("search.candidates.rejected"));
                continue;
            }
            result.candidates_evaluated += 1;
            GCM_OBS_GUARDED(obs::counterAdd("search.candidates"));
            row.evaluated += 1;
            best_lat = std::min(best_lat, c.worst_latency_ms);
            if (c.feasible(budget)) {
                row.feasible += 1;
                best_mmacs = std::max(best_mmacs, c.mmacs);
                archiveInsert(archive, c);
            }
        }
        row.best_latency_ms = std::isfinite(best_lat) ? best_lat : 0.0;
        row.best_mmacs = best_mmacs;
        row.front_size = archive.size();
        result.log.push_back(row);
        obs::counterAdd("search.generations");
        obs::gaugeSet("search.front_size",
                      static_cast<double>(archive.size()));
        obs::gaugeSet("search.cache_effective_hit_rate",
                      service_.cache().stats().effectiveHitRate());
    }

    // Final front: latency ascending, mmacs descending, fingerprint
    // as the total-order tie-break.
    std::sort(archive.begin(), archive.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.worst_latency_ms != b.worst_latency_ms)
                      return a.worst_latency_ms < b.worst_latency_ms;
                  if (a.mmacs != b.mmacs)
                      return a.mmacs > b.mmacs;
                  return a.fingerprint < b.fingerprint;
              });
    result.front = std::move(archive);
    result.cache = service_.cache().stats();
    return result;
}

namespace
{

using json::formatNumber;

std::string
fmtFingerprint(std::uint64_t fp)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(fp));
    return buf;
}

void
appendCandidate(std::string &out, const Candidate &c,
                const SearchConfig &config, const std::string &indent)
{
    out += "{\n";
    out += indent + "  \"genome\": ";
    json::appendJsonString(out, dnn::formatGenome(c.genome));
    out += ",\n";
    out += indent + "  \"fingerprint\": ";
    json::appendJsonString(out, fmtFingerprint(c.fingerprint));
    out += ",\n";
    out += indent
        + "  \"worst_latency_ms\": " + formatNumber(c.worst_latency_ms)
        + ",\n";
    out += indent + "  \"latency_ms\": {";
    for (std::size_t d = 0; d < config.devices.size(); ++d) {
        if (d > 0)
            out += ", ";
        json::appendJsonString(out, config.devices[d]);
        out += ": " + formatNumber(c.latency_ms[d]);
    }
    out += "},\n";
    out += indent + "  \"mmacs\": " + formatNumber(c.mmacs) + ",\n";
    out += indent
        + "  \"params\": " + std::to_string(c.params) + ",\n";
    out += indent
        + "  \"generation\": " + std::to_string(c.generation) + ",\n";
    out += indent + "  \"index\": " + std::to_string(c.index) + "\n";
    out += indent + "}";
}

} // namespace

std::string
renderSearchReport(const SearchConfig &config, const SearchResult &result)
{
    std::string out = "{\n";
    out += "  \"schema\": \"gcm-search/v1\",\n";
    out += "  \"config\": {\n";
    out += "    \"budget_ms\": " + formatNumber(config.budget_ms) + ",\n";
    out += "    \"devices\": [";
    for (std::size_t d = 0; d < config.devices.size(); ++d) {
        if (d > 0)
            out += ", ";
        json::appendJsonString(out, config.devices[d]);
    }
    out += "],\n";
    out += "    \"seed\": " + std::to_string(config.seed) + ",\n";
    out += "    \"population\": " + std::to_string(config.population)
        + ",\n";
    out += "    \"generations\": " + std::to_string(config.generations)
        + ",\n";
    out += "    \"elite\": " + std::to_string(config.elite) + ",\n";
    out += "    \"crossover_probability\": "
        + formatNumber(config.crossover_probability) + ",\n";
    out += "    \"tournament\": " + std::to_string(config.tournament)
        + "\n";
    out += "  },\n";
    out += "  \"model_version\": "
        + std::to_string(result.model_version) + ",\n";
    out += "  \"candidates_evaluated\": "
        + std::to_string(result.candidates_evaluated) + ",\n";
    out += "  \"candidates_rejected\": "
        + std::to_string(result.candidates_rejected) + ",\n";
    const serve::ShardedLruCache::Stats &cs = result.cache;
    out += "  \"cache\": {\"hits\": " + std::to_string(cs.hits)
        + ", \"misses\": " + std::to_string(cs.misses)
        + ", \"insertions\": " + std::to_string(cs.insertions)
        + ", \"evictions\": " + std::to_string(cs.evictions)
        + ", \"coalesced\": " + std::to_string(cs.coalesced)
        + ", \"hit_rate\": " + formatNumber(cs.hitRate())
        + ", \"effective_hit_rate\": "
        + formatNumber(cs.effectiveHitRate()) + "},\n";

    out += "  \"front\": [";
    for (std::size_t i = 0; i < result.front.size(); ++i) {
        out += i == 0 ? "\n    " : ",\n    ";
        appendCandidate(out, result.front[i], config, "    ");
    }
    out += result.front.empty() ? "],\n" : "\n  ],\n";

    // front is latency-sorted, so "fastest under budget" is its head;
    // "best for the worst-case cluster" maximizes the accuracy proxy.
    out += "  \"best_under_budget\": ";
    if (result.front.empty()) {
        out += "null,\n";
    } else {
        appendCandidate(out, result.front.front(), config, "  ");
        out += ",\n";
    }
    out += "  \"best_worst_case\": ";
    if (result.front.empty()) {
        out += "null,\n";
    } else {
        const auto best = std::max_element(
            result.front.begin(), result.front.end(),
            [](const Candidate &a, const Candidate &b) {
                if (a.mmacs != b.mmacs)
                    return a.mmacs < b.mmacs;
                if (a.worst_latency_ms != b.worst_latency_ms)
                    return a.worst_latency_ms > b.worst_latency_ms;
                return a.fingerprint > b.fingerprint;
            });
        appendCandidate(out, *best, config, "  ");
        out += ",\n";
    }

    out += "  \"log\": [";
    for (std::size_t i = 0; i < result.log.size(); ++i) {
        const GenerationLog &row = result.log[i];
        out += i == 0 ? "\n    " : ",\n    ";
        out += "{\"generation\": " + std::to_string(row.generation)
            + ", \"evaluated\": " + std::to_string(row.evaluated)
            + ", \"feasible\": " + std::to_string(row.feasible)
            + ", \"best_latency_ms\": "
            + formatNumber(row.best_latency_ms) + ", \"best_mmacs\": "
            + formatNumber(row.best_mmacs) + ", \"front_size\": "
            + std::to_string(row.front_size) + "}";
    }
    out += result.log.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

} // namespace gcm::search
