/**
 * @file
 * ServerFrontEnd — multi-worker serving with backpressure and priority
 * classes (DESIGN.md §14).
 *
 * The front end owns N workers pulling micro-batches from two bounded
 * FIFO queues, one per Priority class; interactive traffic always
 * drains before bulk NAS traffic. Admission is a two-rung ladder per
 * request, keyed on the depth of its class queue:
 *
 *   depth <  queue_capacity   -> admitted (the run's pinned model)
 *   depth >= queue_capacity   -> shed     (structured overloaded)
 *
 * A registry with no active model answers every admitted request
 * with a structured no_model error.
 *
 * Determinism contract (the serving extension of the PR-2 rule).
 * Queueing decisions depend on *time*, which is why naive multi-
 * threaded serving is unreproducible. The front end splits each run
 * into two phases:
 *
 *  1. Plan (serial, simulated clock): a discrete-event simulation
 *     walks arrivals in timestamp order against a fixed per-request
 *     cost, assigning every request its admission, worker and batch,
 *     and every batch its start/finish time. With a fixed arrival
 *     stream and fixed worker count this phase is a pure function —
 *     the shed set, queue peaks and sojourn percentiles are exactly
 *     reproducible.
 *  2. Execute (parallel, real threads): the planned batches run on
 *     real worker threads (one PredictionService per worker — batch
 *     state is not shareable — over one shared cache), each writing
 *     responses into its own pre-assigned slots. Payload content for
 *     a given (request, pinned version) is a pure function, so
 *     response bytes are identical at ANY worker count; only the
 *     plan (which consumed the worker count) fixes the shed set.
 *
 * The plan reads the registry once: the run pins the active model
 * via shared_ptr, so every admitted response comes from that one
 * version, a concurrent activate() cannot change the shed set, and a
 * concurrent rollback()+retire() cannot free the snapshot mid-run.
 *
 * One deliberate exception to the contract: the shared cache's
 * hit/miss/coalesce counters depend on which worker's batch reaches
 * a key first, so FrontEndReport::cache is a scheduling-dependent
 * diagnostic. Everything else in the report — and every response
 * byte — is deterministic.
 */

#ifndef GCM_SERVE_FRONTEND_HH
#define GCM_SERVE_FRONTEND_HH

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "serve/cache.hh"
#include "serve/registry.hh"
#include "serve/service.hh"

namespace gcm::serve
{

/** One timestamped request line (simulated milliseconds). */
struct Arrival
{
    double time_ms = 0.0;
    std::string line;
    /**
     * Length of the line as read, when readRequestLine() kept only a
     * capped prefix of it in `line` (0: `line` is the whole line).
     */
    std::size_t bytes = 0;
};

struct FrontEndConfig
{
    /** Worker threads; 0 means the GCM_THREADS/default pool size. */
    std::size_t workers = 0;
    /** Per-priority-class queue capacity; beyond it requests shed. */
    std::size_t queue_capacity = 256;
    /** Requests per planned micro-batch. */
    std::size_t batch_size = 16;

    ServiceConfig service;

    /** Throws GcmError on nonsensical parameters. */
    void validate() const;
};

/** Per-run accounting; summary() renders the human-readable block. */
struct FrontEndReport
{
    std::size_t workers = 0;
    std::size_t offered = 0;
    std::size_t ok = 0;
    std::size_t errors = 0; // non-shed error responses
    std::size_t tier_shed = 0;
    std::size_t peak_queue_interactive = 0;
    std::size_t peak_queue_bulk = 0;
    /** Simulated clock when the last batch finished (ms). */
    double sim_duration_ms = 0.0;
    /** Served (non-shed) requests per simulated second. */
    double goodput_qps = 0.0;
    /** tier_shed / offered. */
    double shed_rate = 0.0;
    /** Simulated busy-time fraction across workers. */
    double utilization = 0.0;
    /** Simulated admission->completion sojourn, non-shed requests. */
    double sojourn_p50_ms = 0.0;
    double sojourn_p95_ms = 0.0;
    double sojourn_p99_ms = 0.0;
    ShardedLruCache::Stats cache;

    /** served() == offered - tier_shed; the accounting identity. */
    std::size_t served() const { return ok + errors; }

    std::string summary() const;
};

class ServerFrontEnd
{
  public:
    /**
     * @param registry Model source; must outlive the front end.
     * @param device_table Known devices, shared by every worker.
     */
    ServerFrontEnd(const ModelRegistry &registry,
                   PredictionService::DeviceTable device_table,
                   FrontEndConfig config = {});

    /**
     * Serve one timestamped arrival stream (must be sorted by
     * time_ms; validated). When `responses_out` is non-null it
     * receives one rendered response line per arrival, index-aligned
     * with the arrivals. Never throws on malformed request lines.
     */
    FrontEndReport run(const std::vector<Arrival> &arrivals,
                       std::vector<std::string> *responses_out);

    /** Resolved worker count (config.workers or the pool default). */
    std::size_t workers() const { return workers_; }

    /**
     * Sustainable throughput (requests per simulated second):
     * workers / (request cost + amortized batch overhead).
     */
    double capacityQps() const;

    const FrontEndConfig &config() const { return config_; }
    const ModelRegistry &registry() const { return registry_; }
    const ShardedLruCache &cache() const { return *cache_; }
    const PredictionService::DeviceTable &deviceTable() const;

  private:
    const ModelRegistry &registry_;
    FrontEndConfig config_;
    std::size_t workers_;
    std::shared_ptr<ShardedLruCache> cache_;
    /** One service per worker (processBatch is not thread-safe). */
    std::vector<std::unique_ptr<PredictionService>> services_;
};

/**
 * runFrontEndLoop() serves its input in windows of at most this many
 * lines (or the first line that brings the window's stored bytes to
 * kServeWindowBytes), one run() per window, so memory stays bounded
 * on an endless stream. Every window drains before the next starts.
 */
inline constexpr std::size_t kServeWindowLines = 4096;
inline constexpr std::size_t kServeWindowBytes = std::size_t{16} << 20;

/**
 * Read request lines from `in` (readRequestLine, so an oversized line
 * costs at most the cap), timestamp them with deterministic
 * fixed-rate arrivals (arrival_qps, or exactly capacityQps() when
 * <= 0) on one simulated clock that carries on across windows, serve
 * them through the front end, and write one response line per
 * request to `out`, in input order. Returns the number of lines
 * consumed.
 */
std::size_t runFrontEndLoop(ServerFrontEnd &frontend, std::istream &in,
                            std::ostream &out, double arrival_qps = 0.0);

} // namespace gcm::serve

#endif // GCM_SERVE_FRONTEND_HH
