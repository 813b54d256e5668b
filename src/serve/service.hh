/**
 * @file
 * PredictionService — resolves typed serve requests against the
 * active registry snapshot through the sharded prediction cache.
 *
 * A request names its network (zoo name, or an inline gcm-graph v1
 * text) and its device (a name in the service's device table, or a
 * raw signature-latency vector). Resolution turns that into
 * (deployment graph, signature vector, cache key); prediction then
 * either hits the cache or computes through the pinned snapshot's
 * SignatureCostModel.
 *
 * Determinism contract (the serving extension of the PR-2 rule):
 * processBatch() output is bit-identical at any thread count.
 *  - The batch pins one registry snapshot up front, so a concurrent
 *    hot-swap lands between batches, never inside one.
 *  - Resolution and every cache probe/update run serially in request
 *    order; only pure work for the batch's unique missing keys fans
 *    out: encoding one task per unique non-memoized graph (slots in
 *    first-appearance order), row building (head lookup + anchor) one
 *    task per key, then one blocked FlatEnsemble::predictBatch over
 *    the whole row matrix — itself bit-identical at any thread count
 *    by the ml/flat_ensemble.hh contract.
 *  - Each distinct inline graph text is parsed, verified, quantized
 *    and fingerprinted once per batch; its repeats reuse that outcome
 *    (counted by the guarded `serve.graph.parsed` obs counter).
 *  - Duplicate keys within a batch are coalesced into one compute
 *    (counted by the cache as `coalesced`), so results (and cache
 *    contents) cannot depend on a race between identical requests.
 * The cache is version-keyed and stores exact doubles, so a cache
 * hit returns the byte-identical value the cold path produced.
 */

#ifndef GCM_SERVE_SERVICE_HH
#define GCM_SERVE_SERVICE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dnn/graph.hh"
#include "ml/flat_ensemble.hh"
#include "serve/cache.hh"
#include "serve/registry.hh"

namespace gcm::serve
{

/**
 * Request priority class. Interactive traffic ("how fast is this
 * network on my phone") shares the front end with bulk NAS candidate
 * streams (src/search); the front end keeps one bounded queue per
 * class and always drains interactive first.
 */
enum class Priority
{
    Interactive,
    Bulk,
};

const char *priorityName(Priority p);

/** One parsed gcm-serve/v1 request (see protocol.hh for the wire). */
struct ServeRequest
{
    std::string id;
    Priority priority = Priority::Interactive;
    /** Zoo network name; empty when graph_text is used. */
    std::string network;
    /** Inline gcm-graph v1 document; empty when network is used. */
    std::string graph_text;
    /**
     * In-process callers only (not expressible on the wire): an
     * already-built graph to evaluate directly, skipping
     * serialization. The graph must outlive the processBatch call.
     * Used by the architecture search (src/search), whose candidate
     * stream is exactly this shape. Mutually exclusive with both
     * `network` and `graph_text`. Non-Int8 graphs are quantized per
     * request; pass deployment graphs to avoid that cost.
     */
    const dnn::Graph *graph_ptr = nullptr;
    /** Device-table name; empty when a raw signature is given. */
    std::string device;
    /** Raw signature latencies (ms); valid when has_signature. */
    std::vector<double> signature;
    bool has_signature = false;
};

/** Machine-readable error categories of the serve protocol. */
enum class ServeErrorCode
{
    BadRequest,         // malformed JSON / schema violation / bad values
    UnknownNetwork,     // network name not in the zoo
    UnsupportedNetwork, // more layers than the model's layout allows
    UnknownDevice,      // device name not in the device table
    BadGraph,           // inline graph failed to parse/verify
    NoModel,            // registry has no active servable snapshot
    Overloaded,         // class queue full: the front end's shed rung
    Internal,           // prediction failed after admission
    ModelError,         // the model predicted a non-positive or
                        // non-finite latency
};

const char *serveErrorCodeName(ServeErrorCode code);

/** One serve response; rendered to the wire by protocol.cc. */
struct ServeResponse
{
    std::string id;
    bool ok = false;
    double latency_ms = 0.0;
    ModelRegistry::Version model_version = 0;
    ServeErrorCode error_code = ServeErrorCode::BadRequest;
    std::string error_message;
    /** Shed context: queue depth observed at rejection time. */
    std::size_t queue_depth = 0;
    /** Shed context: suggested client back-off (simulated ms). */
    double retry_after_ms = 0.0;

    static ServeResponse
    failure(std::string id, ServeErrorCode code, std::string message)
    {
        ServeResponse r;
        r.id = std::move(id);
        r.error_code = code;
        r.error_message = std::move(message);
        return r;
    }
};

/** Serving-side tunables. */
struct ServiceConfig
{
    std::size_t cache_capacity = 4096;
    std::size_t cache_shards = 8;
};

class PredictionService
{
  public:
    /** Signature latencies per device name, in model signature order. */
    using DeviceTable = std::map<std::string, std::vector<double>>;

    /**
     * @param registry Model source; the service keeps a reference, so
     *        the registry must outlive it. Hot-swaps take effect at
     *        the next batch.
     * @param device_table Known devices (may be empty: requests must
     *        then carry raw signatures).
     * @param shared_cache When non-null, use this cache instead of
     *        constructing a private one — the ServerFrontEnd gives
     *        each worker its own service (processBatch is not
     *        thread-safe) but shares one cache across all of them.
     *        The cache itself is sharded and thread-safe.
     */
    PredictionService(const ModelRegistry &registry,
                      DeviceTable device_table, ServiceConfig config = {},
                      std::shared_ptr<ShardedLruCache> shared_cache = {});

    /**
     * Serve one batch against the currently active snapshot.
     * Responses are index-aligned with the requests. Never throws for
     * malformed requests — every failure becomes a structured error
     * response.
     */
    std::vector<ServeResponse>
    processBatch(const std::vector<ServeRequest> &requests);

    /**
     * Serve one batch against an explicitly pinned snapshot. The
     * front end pins the active model once per run and serves every
     * admitted batch from it: holding the shared_ptr means a
     * concurrent rollback() + retire() cannot free the snapshot under
     * an in-flight batch.
     */
    std::vector<ServeResponse>
    processBatch(const std::vector<ServeRequest> &requests,
                 const ModelRegistry::ActiveModel &pinned);

    const ShardedLruCache &cache() const { return *cache_; }
    const DeviceTable &deviceTable() const { return device_table_; }
    const ModelRegistry &registry() const { return registry_; }

  private:
    /** Outcome of resolving one request (error_message empty = ok). */
    struct Resolved
    {
        /**
         * Points into graph_memo_, at owned_graph, or at the
         * owned_graph of the batch's first request with the same
         * inline text.
         */
        const dnn::Graph *graph = nullptr;
        /** Owner for quantized graph_ptr and first-seen inline graphs. */
        std::unique_ptr<dnn::Graph> owned_graph;
        /**
         * Memoized encoder output for zoo networks (points into
         * graph_memo_); nullptr for inline graphs, which encode in
         * the parallel row-build phase.
         */
        const std::vector<float> *net_features = nullptr;
        std::vector<double> signature;
        CacheKey key;
        ServeErrorCode error_code = ServeErrorCode::BadRequest;
        std::string error_message;

        bool ok() const { return error_message.empty(); }
    };

    /**
     * One inline text's outcome, shared by every request of a batch
     * that sends the same text: the deployment graph (owned by the
     * first such request's Resolved), its fingerprint and depth, or
     * the parse error.
     */
    struct InlineGraph
    {
        const dnn::Graph *graph = nullptr;
        std::uint64_t fp = 0;
        std::size_t depth = 0;
        std::string error_message;
    };
    /** Batch-local: exact inline text -> its outcome. */
    using InlineGraphs =
        std::unordered_map<std::string_view, InlineGraph>;

    Resolved resolve(const ServeRequest &request,
                     const core::SignatureCostModel &model,
                     ModelRegistry::Version version,
                     InlineGraphs &inline_graphs);

    const ModelRegistry &registry_;
    DeviceTable device_table_;
    std::shared_ptr<ShardedLruCache> cache_;
    /**
     * Per zoo network: deployment graph, structural fingerprint, and
     * the encoder output for the model version that last served it.
     * The zoo is a fixed finite set, so this is bounded; it lets the
     * cold path skip rebuilding, re-quantizing and — per model
     * version — re-encoding the network, which dominates cold-path
     * cost.
     */
    struct NetworkMemo
    {
        dnn::Graph graph;
        std::uint64_t fp = 0;
        /** core::NetworkEncoder::depth(graph). */
        std::size_t depth = 0;
        /** 0: nothing encoded yet (versions start at 1). */
        ModelRegistry::Version enc_version = 0;
        std::vector<float> enc;
    };
    std::map<std::string, NetworkMemo> graph_memo_;
    /**
     * Per-batch compute scratch, reused across batches so the cold
     * path does not reallocate (processBatch is not thread-safe
     * anyway — graph_memo_ — so plain members are fine). Sized to the
     * largest batch seen; only the first `compute.size()` slots of
     * each are meaningful in any one batch.
     */
    std::vector<float> tails_;
    /**
     * One encoder output per *unique non-memoized graph* in the
     * batch (slots assigned in first-appearance order by graph
     * fingerprint), not per compute task: an adversarial all-unique
     * candidate stream that queries one graph across many devices
     * encodes each graph once, not once per device.
     */
    std::vector<std::vector<float>> inline_enc_;
    std::vector<std::string> enc_errors_;
    std::vector<ml::FlatEnsemble::SegmentedRow> seg_rows_;
    std::vector<double> anchors_;
    std::vector<double> values_;
    std::vector<std::string> errors_;
    /** Zero head/tail stand-in for rows whose build failed. */
    std::vector<float> fallback_;
};

} // namespace gcm::serve

#endif // GCM_SERVE_SERVICE_HH
