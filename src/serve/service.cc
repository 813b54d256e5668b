#include "serve/service.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "core/net_encoder.hh"
#include "dnn/fingerprint.hh"
#include "dnn/quantize.hh"
#include "dnn/serialize.hh"
#include "dnn/zoo.hh"
#include "obs/obs.hh"
#include "util/error.hh"
#include "util/parallel.hh"

namespace gcm::serve
{

const char *
priorityName(Priority p)
{
    switch (p) {
      case Priority::Interactive: return "interactive";
      case Priority::Bulk: return "bulk";
    }
    return "?";
}

const char *
serveErrorCodeName(ServeErrorCode code)
{
    switch (code) {
      case ServeErrorCode::BadRequest: return "bad_request";
      case ServeErrorCode::UnknownNetwork: return "unknown_network";
      case ServeErrorCode::UnsupportedNetwork:
        return "unsupported_network";
      case ServeErrorCode::UnknownDevice: return "unknown_device";
      case ServeErrorCode::BadGraph: return "bad_graph";
      case ServeErrorCode::NoModel: return "no_model";
      case ServeErrorCode::Overloaded: return "overloaded";
      case ServeErrorCode::Internal: return "internal";
    }
    return "?";
}

namespace
{

/** Outcome of checkRequest(); error_message empty = valid. */
struct RequestCheck
{
    ServeErrorCode error_code = ServeErrorCode::BadRequest;
    std::string error_message;
    /** Its device's table row or its own raw signature vector. */
    const std::vector<double> *signature = nullptr;

    bool ok() const { return error_message.empty(); }
};

/**
 * The request schema, checked before any network lookup: exactly one
 * network source, exactly one of device and signature, a known device
 * and finite positive signature values. Checks that need the model
 * (the network resolving, the signature width) come after.
 */
RequestCheck
checkRequest(const ServeRequest &request,
             const PredictionService::DeviceTable &device_table)
{
    const auto fail = [](ServeErrorCode code, std::string msg) {
        return RequestCheck{code, std::move(msg), nullptr};
    };
    const int network_sources =
        static_cast<int>(!request.network.empty())
        + static_cast<int>(!request.graph_text.empty())
        + static_cast<int>(request.graph_ptr != nullptr);
    if (network_sources != 1) {
        return fail(ServeErrorCode::BadRequest,
                    "exactly one of 'network' and 'graph' is required");
    }
    const bool has_device = !request.device.empty();
    if (has_device == request.has_signature) {
        return fail(ServeErrorCode::BadRequest,
                    "exactly one of 'device' and 'signature' is required");
    }
    RequestCheck check;
    check.signature = &request.signature;
    if (has_device) {
        const auto it = device_table.find(request.device);
        if (it == device_table.end()) {
            return fail(ServeErrorCode::UnknownDevice,
                        "unknown device '" + request.device + "'");
        }
        check.signature = &it->second;
    }
    for (const double v : *check.signature) {
        if (!std::isfinite(v) || v <= 0.0) {
            return fail(ServeErrorCode::BadRequest,
                        "signature latencies must be finite and positive");
        }
    }
    return check;
}

} // namespace

PredictionService::PredictionService(
    const ModelRegistry &registry, DeviceTable device_table,
    ServiceConfig config, std::shared_ptr<ShardedLruCache> shared_cache)
    : registry_(registry), device_table_(std::move(device_table)),
      cache_(shared_cache != nullptr
                 ? std::move(shared_cache)
                 : std::make_shared<ShardedLruCache>(
                       config.cache_capacity, config.cache_shards))
{
}

PredictionService::Resolved
PredictionService::resolve(const ServeRequest &request,
                           const core::SignatureCostModel &model,
                           ModelRegistry::Version version,
                           InlineGraphs &inline_graphs)
{
    Resolved r;
    const auto failWith = [&r](ServeErrorCode code, std::string msg) {
        r.error_code = code;
        r.error_message = std::move(msg);
    };

    RequestCheck check = checkRequest(request, device_table_);
    if (!check.ok()) {
        failWith(check.error_code, std::move(check.error_message));
        return r;
    }

    // --- network -> deployment graph + structural fingerprint.
    const bool has_network = !request.network.empty();
    const bool has_ptr = request.graph_ptr != nullptr;
    NetworkMemo *memo = nullptr;
    std::size_t depth = 0;
    if (has_ptr) {
        // In-process caller handing us an already-built graph; no
        // parsing, no memo (the stream is typically all-unique).
        if (request.graph_ptr->precision() == dnn::Precision::Int8) {
            r.graph = request.graph_ptr;
        } else {
            try {
                r.owned_graph = std::make_unique<dnn::Graph>(
                    dnn::quantize(*request.graph_ptr));
            } catch (const GcmError &e) {
                failWith(ServeErrorCode::BadGraph,
                         std::string("graph rejected: ") + e.what());
                return r;
            }
            r.graph = r.owned_graph.get();
        }
        r.key.graph_fp = dnn::graphFingerprint(*r.graph);
        depth = core::NetworkEncoder::depth(*r.graph);
    } else if (has_network) {
        auto it = graph_memo_.find(request.network);
        if (it == graph_memo_.end()) {
            NetworkMemo built;
            try {
                built.graph =
                    dnn::quantize(dnn::buildZooModel(request.network));
            } catch (const GcmError &) {
                failWith(ServeErrorCode::UnknownNetwork,
                         "unknown network '" + request.network + "'");
                return r;
            }
            built.fp = dnn::graphFingerprint(built.graph);
            built.depth = core::NetworkEncoder::depth(built.graph);
            it = graph_memo_
                     .emplace(request.network, std::move(built))
                     .first;
        }
        memo = &it->second;
        r.graph = &memo->graph;
        r.key.graph_fp = memo->fp;
        depth = memo->depth;
    } else {
        // Parse, verify, quantize and fingerprint each distinct text
        // once per batch; repeats reuse the first request's outcome.
        const auto [it, fresh] =
            inline_graphs.try_emplace(request.graph_text);
        InlineGraph &parsed = it->second;
        if (fresh) {
            GCM_OBS_GUARDED(obs::counterAdd("serve.graph.parsed"));
            try {
                dnn::Graph g = dnn::graphFromText(request.graph_text);
                if (g.precision() != dnn::Precision::Int8)
                    g = dnn::quantize(g);
                r.owned_graph =
                    std::make_unique<dnn::Graph>(std::move(g));
                parsed.graph = r.owned_graph.get();
                parsed.fp = dnn::graphFingerprint(*parsed.graph);
                parsed.depth = core::NetworkEncoder::depth(*parsed.graph);
            } catch (const GcmError &e) {
                parsed.error_message =
                    std::string("inline graph rejected: ") + e.what();
            }
        }
        if (parsed.graph == nullptr) {
            failWith(ServeErrorCode::BadGraph, parsed.error_message);
            return r;
        }
        r.graph = parsed.graph;
        r.key.graph_fp = parsed.fp;
        depth = parsed.depth;
    }

    // --- device -> signature-latency vector + fingerprint.
    r.signature = *check.signature;
    const std::size_t want = model.signatureNames().size();
    if (r.signature.size() != want) {
        failWith(request.has_signature ? ServeErrorCode::BadRequest
                                       : ServeErrorCode::Internal,
                 "signature has " + std::to_string(r.signature.size())
                     + " latencies, the model expects "
                     + std::to_string(want));
        return r;
    }

    // --- the network must fit the model's positional layout.
    const std::size_t max_layers = model.encoder().maxLayers();
    if (depth > max_layers) {
        failWith(ServeErrorCode::UnsupportedNetwork,
                 "network '" + r.graph->name() + "' has "
                     + std::to_string(depth)
                     + " layers; the model's layout allows at most "
                     + std::to_string(max_layers));
        return r;
    }
    // Encode a zoo network once per (network, model version); the
    // batch pins one version, so within a batch this hits after the
    // first request for the network.
    if (memo != nullptr) {
        if (memo->enc_version != version) {
            try {
                memo->enc = model.encodeNetwork(memo->graph);
            } catch (const GcmError &e) {
                failWith(ServeErrorCode::Internal,
                         std::string("prediction failed: ") + e.what());
                return r;
            }
            memo->enc_version = version;
        }
        r.net_features = &memo->enc;
    }
    r.key.device_fp = signatureFingerprint(r.signature);
    r.key.model_version = version;
    return r;
}

std::vector<ServeResponse>
PredictionService::processBatch(const std::vector<ServeRequest> &requests)
{
    // Pin one snapshot for the whole batch: a concurrent hot-swap
    // lands between batches, never inside one.
    return processBatch(requests, registry_.active());
}

std::vector<ServeResponse>
PredictionService::processBatch(const std::vector<ServeRequest> &requests,
                                const ModelRegistry::ActiveModel &active)
{
    const obs::TraceSpan span("serve.batch");
    const bool timed = obs::enabled();
    const auto t0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    obs::counterAdd("serve.requests", requests.size());

    std::vector<ServeResponse> responses(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i)
        responses[i].id = requests[i].id;

    if (!active) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
            responses[i] = ServeResponse::failure(
                requests[i].id, ServeErrorCode::NoModel,
                "no model published");
        }
        obs::counterAdd("serve.responses.error", requests.size());
        return responses;
    }
    const core::SignatureCostModel &model = active.snapshot->costModel();

    // Serial phase: resolve and probe the cache in request order, so
    // LRU movement and hit/miss accounting are schedule-independent.
    enum class State { Error, Hit, Compute };
    struct Plan
    {
        State state = State::Error;
        std::size_t compute_slot = 0;
    };
    std::vector<Plan> plan(requests.size());
    std::vector<Resolved> resolved;
    // Compute tasks keep pointers into this vector; the reserve keeps
    // them stable across the push_backs below.
    resolved.reserve(requests.size());
    struct ComputeTask
    {
        const dnn::Graph *graph;
        /** Memoized encoding; nullptr -> encode in the row build. */
        const std::vector<float> *net_features;
        const std::vector<double> *signature;
        CacheKey key;
    };
    std::vector<ComputeTask> compute;
    std::unordered_map<CacheKey, std::size_t, CacheKeyHasher> pending;
    // Encode-slot assignment: one slot per unique non-memoized graph
    // fingerprint, in first-appearance order. A candidate evaluated
    // across N devices contributes N compute tasks but one encode.
    constexpr std::size_t kNoEncode =
        std::numeric_limits<std::size_t>::max();
    std::unordered_map<std::uint64_t, std::size_t> enc_slot;
    std::vector<const dnn::Graph *> enc_graphs;
    std::vector<std::size_t> task_enc;
    InlineGraphs inline_graphs;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        resolved.push_back(
            resolve(requests[i], model, active.version, inline_graphs));
        Resolved &r = resolved.back();
        if (!r.ok()) {
            responses[i] = ServeResponse::failure(
                requests[i].id, r.error_code, r.error_message);
            continue;
        }
        if (const auto hit = cache_->get(r.key)) {
            plan[i].state = State::Hit;
            responses[i].ok = true;
            responses[i].latency_ms = *hit;
            responses[i].model_version = active.version;
            continue;
        }
        // Coalesce duplicate keys within the batch into one compute;
        // the duplicates are counted so hit-rate reports see them.
        const auto [it, inserted] =
            pending.emplace(r.key, compute.size());
        if (inserted) {
            std::size_t slot = kNoEncode;
            if (r.net_features == nullptr) {
                const auto [eit, fresh] = enc_slot.emplace(
                    r.key.graph_fp, enc_graphs.size());
                if (fresh)
                    enc_graphs.push_back(r.graph);
                slot = eit->second;
            }
            task_enc.push_back(slot);
            compute.push_back(
                {r.graph, r.net_features, &r.signature, r.key});
        } else {
            cache_->noteCoalesced(r.key);
        }
        plan[i].state = State::Compute;
        plan[i].compute_slot = it->second;
    }

    // Parallel phase: build one segmented query row per unique
    // missing key — the head is the (memoized) network encoding,
    // shared across every request for the same network, and the tail
    // is the request's anchor-normalized signature — then predict
    // every row with one blocked pass through the snapshot's
    // compiled ensemble (bit-identical at any thread count per
    // ml/flat_ensemble.hh). Errors are carried in-band so a poisoned
    // request cannot abort its batch siblings.
    const std::size_t head_w = model.networkFeatureWidth();
    const std::size_t sig_w = model.signatureNames().size();
    const std::size_t n_compute = compute.size();
    const std::size_t n_encode = enc_graphs.size();
    if (tails_.size() < n_compute * sig_w)
        tails_.resize(n_compute * sig_w);
    if (inline_enc_.size() < n_encode)
        inline_enc_.resize(n_encode);
    enc_errors_.assign(n_encode, std::string());
    if (seg_rows_.size() < n_compute)
        seg_rows_.resize(n_compute);
    if (anchors_.size() < n_compute)
        anchors_.resize(n_compute);
    if (values_.size() < n_compute)
        values_.resize(n_compute);
    errors_.assign(n_compute, std::string());
    if (fallback_.size() < head_w + sig_w)
        fallback_.assign(head_w + sig_w, 0.0f);
    parallelFor(0, n_encode, 1, [&](std::size_t s) {
        std::vector<float> *enc = inline_enc_.data();
        std::string *error = enc_errors_.data();
        try {
            enc[s] = model.encodeNetwork(*enc_graphs[s]);
        } catch (const GcmError &e) {
            error[s] = e.what();
        }
    });
    parallelFor(0, n_compute, 1, [&](std::size_t j) {
        float *tail = tails_.data() + j * sig_w;
        double *anchor = anchors_.data();
        std::string *error = errors_.data();
        ml::FlatEnsemble::SegmentedRow *seg = seg_rows_.data();
        const std::vector<float> *enc = inline_enc_.data();
        try {
            const float *head;
            if (compute[j].net_features != nullptr) {
                head = compute[j].net_features->data();
            } else {
                const std::size_t slot = task_enc[j];
                if (!enc_errors_[slot].empty())
                    throw GcmError(enc_errors_[slot]);
                head = enc[slot].data();
            }
            anchor[j] =
                model.signatureTail(*compute[j].signature, tail);
            seg[j] = {head, tail};
        } catch (const GcmError &e) {
            error[j] = e.what();
            // Park failed rows on zeros; their output is discarded.
            seg[j] = {fallback_.data(), fallback_.data()};
        }
    });
    if (n_compute > 0) {
        model.flat().predictBatchSegmented(seg_rows_.data(), n_compute,
                                           head_w, values_.data());
    }

    // Serial epilogue: publish results to the cache in slot order and
    // fill the remaining responses. Scaling by the anchor here keeps
    // the arithmetic identical to predictMs (raw * anchor).
    for (std::size_t j = 0; j < n_compute; ++j) {
        if (errors_[j].empty())
            cache_->put(compute[j].key, values_[j] * anchors_[j]);
    }
    std::uint64_t ok_count = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (plan[i].state == State::Compute) {
            const std::size_t j = plan[i].compute_slot;
            if (errors_[j].empty()) {
                responses[i].ok = true;
                responses[i].latency_ms = values_[j] * anchors_[j];
                responses[i].model_version = active.version;
            } else {
                responses[i] = ServeResponse::failure(
                    requests[i].id, ServeErrorCode::Internal,
                    "prediction failed: " + errors_[j]);
            }
        }
        ok_count += responses[i].ok ? 1 : 0;
    }
    obs::counterAdd("serve.responses.ok", ok_count);
    obs::counterAdd("serve.responses.error",
                    requests.size() - ok_count);
    if (timed) {
        const std::chrono::duration<double, std::milli> dt =
            std::chrono::steady_clock::now() - t0;
        obs::histogramObserve("serve.batch_ms", dt.count());
    }
    return responses;
}

} // namespace gcm::serve
