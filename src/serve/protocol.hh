/**
 * @file
 * gcm-serve/v1 — line-delimited JSON serving protocol.
 *
 * Requests, one JSON object per line:
 *
 *   {"id": "r1", "network": "mobilenet_v2_1.0", "device": "Mi-9"}
 *   {"id": "r2", "graph": "gcm-graph v1\n...", "signature": [3.1, 8.2]}
 *
 * Fields: `id` (optional string, echoed back), exactly one of
 * `network` (zoo name) / `graph` (inline gcm-graph v1 document),
 * exactly one of `device` (device-table name) / `signature` (array of
 * finite positive numbers, in model signature order), and an optional
 * `priority` ("interactive", the default, or "bulk") consumed by the
 * multi-worker front end's per-class queues (frontend.hh).
 *
 * Responses, one JSON object per request line, in request order:
 *
 *   {"id": "r1", "ok": true, "latency_ms": 42.25, "model_version": 1}
 *   {"id": "r2", "ok": false, "error": {"code": "bad_request",
 *    "message": "..."}}
 *
 * Error codes (ServeErrorCode): bad_request, unknown_network,
 * unsupported_network (more layers than the model's layout),
 * unknown_device, bad_graph, no_model, overloaded, internal, and
 * model_error (the model predicted a non-positive or non-finite
 * latency; such a value is never cached and never answered as ok).
 *
 * Shed responses carry backpressure context inside the error object —
 * the queue depth observed at rejection and a suggested back-off —
 * and the one degradation tag (version-gated: every other response
 * lacks the field, so pre-ladder clients parse them unchanged):
 *
 *   {"id": "r3", "ok": false, "error": {"code": "overloaded",
 *    "message": "...", "queue_depth": 256, "retry_after_ms": 12.5},
 *    "degraded": {"tier": "shed"}}
 *
 * The response line carries no cache or timing detail, so byte-equal
 * request streams produce byte-equal response streams at any thread
 * count and any cache temperature; hit/miss accounting is observable
 * through ShardedLruCache::stats() and the serve.cache.* counters.
 *
 * Untrusted-input contract: any line — malformed JSON, unknown
 * fields, wrong types, oversized lines (> kMaxRequestLineBytes),
 * non-finite numbers — yields a structured error *response*, never an
 * exception out of the loop and never a crash. A line with several
 * faults gets one message: a JSON grammar error anywhere on the line
 * wins (the whole line is read first), then the schema error of the
 * first failing key in byte order (unknown keys included), whatever
 * the order of the keys on the line.
 *
 * Admission control and batching live in the multi-worker front end
 * (frontend.hh), the one serving path; this header holds the wire
 * format and the bounded line reader it uses.
 */

#ifndef GCM_SERVE_PROTOCOL_HH
#define GCM_SERVE_PROTOCOL_HH

#include <cstddef>
#include <iosfwd>
#include <string>

#include "serve/service.hh"

namespace gcm::serve
{

/** Hard cap on one request line; beyond it the line is rejected. */
inline constexpr std::size_t kMaxRequestLineBytes = 1u << 20;

/**
 * Parse one request line, read straight off a json::Reader, into
 * `out`. Returns an empty string on success, else the message of its
 * "bad_request" response; never throws. A line that is not a JSON
 * object leaves `out` untouched. Any other failed line sets `out.id`
 * to its string id (or ""), so even schema-violating requests get
 * their id echoed back, and `out.priority` to a valid priority whose
 * key sorts before the failing one (the front end queues the error
 * response by it).
 */
std::string tryParseRequest(const std::string &line, ServeRequest &out);

/**
 * One request line (no newline) that tryParseRequest reads back;
 * empty fields, an interactive priority and graph_ptr are left out.
 */
std::string renderRequest(const ServeRequest &request);

/** Render a response as one JSON line (no trailing newline). */
std::string renderResponse(const ServeResponse &response);

/**
 * Read one request line from `in`, without its newline. At most
 * kMaxRequestLineBytes + 1 bytes of the line are stored in `line`;
 * the rest is counted and discarded, so a hostile line cannot grow
 * memory past the cap. `bytes` receives the line's full length.
 * Returns false at end of input (like std::getline, a last line
 * without a trailing newline still counts).
 */
bool readRequestLine(std::istream &in, std::string &line,
                     std::size_t &bytes);

/** The bad_request message for a line of `bytes` over the cap. */
std::string oversizedLineMessage(std::size_t bytes);

} // namespace gcm::serve

#endif // GCM_SERVE_PROTOCOL_HH
