/**
 * @file
 * Seeded open-loop load generator for the serving front end.
 *
 * Synthesizes a deterministic gcm-serve/v1 request stream from a
 * seed and a mix profile, timestamps it with Poisson arrivals *on
 * the simulated clock* at a configured offered_qps, and drives it
 * through the multi-worker ServerFrontEnd. Arrivals do not wait for
 * responses, which is what makes overload regimes reachable at all.
 *
 * Mixes:
 *  - DuplicateHeavy: requests are drawn (with a skewed weighting)
 *    from a small pool of (network, device) pairs, so the steady
 *    state is almost all cache hits — the serving fast path.
 *  - UniqueHeavy: every request perturbs its raw signature vector,
 *    so every key is new and the cold path runs end to end.
 *
 * A bulk_fraction of the stream is tagged `"priority": "bulk"`.
 * Determinism: the whole run is deterministic — arrival times, shed
 * decisions, goodput, shed-rate, queue peaks and the response bytes
 * are pure functions of (seed, config, model, worker count).
 * The one exception is the shared cache's hit/miss/coalesce
 * counters, which depend on worker scheduling (frontend.hh).
 * Wall-clock serving throughput is measured by perfbench's serve
 * workloads, not here.
 */

#ifndef GCM_SERVE_LOADGEN_HH
#define GCM_SERVE_LOADGEN_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/frontend.hh"

namespace gcm::serve
{

/** Request-mix profiles. */
enum class LoadMix
{
    DuplicateHeavy,
    UniqueHeavy,
};

/** Parse "duplicate" / "unique". Throws GcmError. */
LoadMix parseLoadMix(const std::string &name);

struct LoadGenConfig
{
    std::size_t requests = 2000;
    std::uint64_t seed = 42;
    LoadMix mix = LoadMix::DuplicateHeavy;
    /** Distinct (network, device) pairs of the duplicate-heavy pool. */
    std::size_t pool_size = 16;
    /** Poisson offered load (simulated req/s); must be > 0. */
    double offered_qps = 0.0;
    /** Fraction of requests tagged priority "bulk". */
    double bulk_fraction = 0.0;

    /** Throws GcmError on invalid parameters. */
    void validate() const;
};

/**
 * Generate the deterministic timestamped arrival stream for a run:
 * the mix's request bodies (plus priority tags for a bulk_fraction
 * of them), with Poisson inter-arrival gaps at config.offered_qps on
 * the simulated clock. Requires offered_qps > 0. Exposed so tests
 * can replay the exact stream.
 */
std::vector<Arrival> generateArrivals(const ServerFrontEnd &frontend,
                                      const LoadGenConfig &config);

/**
 * Run the generator against a multi-worker front end. When
 * `responses_out` is non-null, every response line is written to it
 * in arrival order (shed rejections included, in position).
 */
FrontEndReport runOpenLoadGen(ServerFrontEnd &frontend,
                              const LoadGenConfig &config,
                              std::ostream *responses_out);

} // namespace gcm::serve

#endif // GCM_SERVE_LOADGEN_HH
