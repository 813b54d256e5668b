#include "serve/analytical.hh"

#include "dnn/quantize.hh"
#include "dnn/serialize.hh"
#include "dnn/zoo.hh"
#include "sim/chipset.hh"
#include "util/error.hh"

namespace gcm::serve
{

AnalyticalEstimator::AnalyticalEstimator(
    const PredictionService::DeviceTable *device_table)
    : device_table_(device_table)
{
    // Fixed synthetic reference: first chipset-table entry (order is
    // stable by the chipset.hh contract) at peak frequency, neutral
    // hidden factors. The point is a deterministic, always-available
    // scale, not per-device fidelity.
    const sim::Chipset &chipset = referenceChipset();
    reference_.model_name = "analytical-reference";
    reference_.chipset_index = 0;
    reference_.freq_ghz = chipset.max_freq_ghz;
    reference_.ram_gb = chipset.ram_options_gb.empty()
                            ? 4.0
                            : chipset.ram_options_gb.front();
}

const sim::Chipset &
AnalyticalEstimator::referenceChipset() const
{
    return sim::chipsetTable().front();
}

double
AnalyticalEstimator::estimateMs(const dnn::Graph &graph) const
{
    return model_.graphLatencyMs(graph, reference_,
                                 referenceChipset());
}

ServeResponse
AnalyticalEstimator::serve(const ServeRequest &request)
{
    ServeResponse r;
    r.id = request.id;
    r.tier = ServeTier::Analytical;
    const auto failWith = [&r](ServeErrorCode code, std::string msg) {
        r.ok = false;
        r.error_code = code;
        r.error_message = std::move(msg);
    };

    // Same request schema as the full tier: a degraded server must
    // not accept requests a healthy one would reject.
    RequestCheck check = checkRequest(request, device_table_);
    if (!check.ok()) {
        failWith(check.error_code, std::move(check.error_message));
        return r;
    }
    const bool has_network = !request.network.empty();
    const bool has_graph = !request.graph_text.empty();
    const bool has_ptr = request.graph_ptr != nullptr;

    try {
        double estimate = 0.0;
        if (has_network) {
            const auto it = zoo_memo_.find(request.network);
            if (it != zoo_memo_.end()) {
                estimate = it->second;
            } else {
                dnn::Graph g;
                try {
                    g = dnn::quantize(
                        dnn::buildZooModel(request.network));
                } catch (const GcmError &) {
                    failWith(ServeErrorCode::UnknownNetwork,
                             "unknown network '" + request.network
                                 + "'");
                    return r;
                }
                estimate = estimateMs(g);
                zoo_memo_.emplace(request.network, estimate);
            }
        } else if (has_ptr) {
            if (request.graph_ptr->precision()
                == dnn::Precision::Int8) {
                estimate = estimateMs(*request.graph_ptr);
            } else {
                estimate =
                    estimateMs(dnn::quantize(*request.graph_ptr));
            }
        } else {
            dnn::Graph g = dnn::graphFromText(request.graph_text);
            if (g.precision() != dnn::Precision::Int8)
                g = dnn::quantize(g);
            estimate = estimateMs(g);
        }
        r.ok = true;
        r.latency_ms = estimate;
        r.model_version = 0; // no learned model involved
    } catch (const GcmError &e) {
        failWith(has_graph ? ServeErrorCode::BadGraph
                           : ServeErrorCode::Internal,
                 has_graph
                     ? std::string("inline graph rejected: ") + e.what()
                     : std::string("analytical estimate failed: ")
                           + e.what());
    }
    return r;
}

} // namespace gcm::serve
