/**
 * @file
 * AnalyticalEstimator — the model-free bottom rung of the serving
 * degradation ladder (frontend.hh, DESIGN.md §14).
 *
 * When the front end is past its hard watermark (or no cost-model
 * snapshot is servable at all), requests are answered from a pure
 * roofline estimate computed from the graph alone: the simulator's
 * LatencyModel evaluated on a fixed synthetic reference device — the
 * first chipsetTable() entry at its peak frequency with neutral
 * hidden factors. This is the same "simplistic analytical fallback
 * when the full model is unavailable" posture VPUNN ships for an
 * uninitialized NN cost model: coarse (it knows nothing about the
 * requesting device beyond validating the request), but cheap,
 * deterministic, and always available.
 *
 * Determinism contract: serve() is a pure function of the request
 * content — no registry, no cache, no clock — so analytical-tier
 * payloads are byte-identical at any thread count. Responses carry
 * model_version 0 and tier Analytical.
 */

#ifndef GCM_SERVE_ANALYTICAL_HH
#define GCM_SERVE_ANALYTICAL_HH

#include <map>
#include <string>

#include "serve/service.hh"
#include "sim/device.hh"
#include "sim/latency_model.hh"

namespace gcm::serve
{

class AnalyticalEstimator
{
  public:
    /**
     * @param device_table Optional device-name table used only to
     *        validate `device` fields (the estimate itself ignores
     *        the device — see file comment). Pass the front end's
     *        table so analytical responses reject the same unknown
     *        devices the full tier would. The table must outlive the
     *        estimator. nullptr skips device validation.
     */
    explicit AnalyticalEstimator(
        const PredictionService::DeviceTable *device_table = nullptr);

    /** Roofline latency (ms) of a graph on the reference device. */
    double estimateMs(const dnn::Graph &graph) const;

    /**
     * Serve one request from the roofline alone. Runs the same
     * checkRequest() as the full tier first, so clients cannot
     * smuggle malformed requests through an overloaded server.
     * Never throws.
     */
    ServeResponse serve(const ServeRequest &request);

    /** The reference chipset the estimates assume. */
    const sim::Chipset &referenceChipset() const;

  private:
    sim::LatencyModel model_;
    sim::DeviceSpec reference_;
    const PredictionService::DeviceTable *device_table_;
    /** Per zoo network estimate memo (the zoo is a fixed finite set). */
    std::map<std::string, double> zoo_memo_;
};

} // namespace gcm::serve

#endif // GCM_SERVE_ANALYTICAL_HH
