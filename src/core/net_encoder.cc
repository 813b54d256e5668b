#include "core/net_encoder.hh"

#include <algorithm>

#include "util/error.hh"

namespace gcm::core
{

namespace
{

/** Operator one-hot size: all kinds except Input. */
constexpr std::size_t kOpOneHot = dnn::kNumOpKinds - 1;

/** Numeric parameter slots per layer. */
constexpr std::size_t kParamSlots = 9;

const char *const kParamNames[kParamSlots] = {
    "in_h", "in_c", "out_h", "out_c", "kernel",
    "stride", "padding", "grouped", "fused_act",
};

} // namespace

std::size_t
NetworkEncoder::depth(const dnn::Graph &graph)
{
    std::size_t n = 0;
    for (const auto &node : graph.nodes()) {
        if (node.kind != dnn::OpKind::Input)
            ++n;
    }
    return n;
}

NetworkEncoder::NetworkEncoder(const std::vector<dnn::Graph> &suite)
{
    GCM_ASSERT(!suite.empty(), "NetworkEncoder: empty suite");
    std::size_t deepest = 0;
    for (const auto &g : suite)
        deepest = std::max(deepest, depth(g));
    maxLayers_ = deepest;
}

NetworkEncoder::NetworkEncoder(std::size_t max_layers)
    : maxLayers_(max_layers)
{
    GCM_ASSERT(max_layers > 0, "NetworkEncoder: zero max_layers");
}

std::size_t
NetworkEncoder::featuresPerLayer() const
{
    return kOpOneHot + kParamSlots;
}

std::size_t
NetworkEncoder::numFeatures() const
{
    return maxLayers_ * featuresPerLayer();
}

std::vector<float>
NetworkEncoder::encode(const dnn::Graph &graph) const
{
    std::vector<float> out(numFeatures());
    encodeInto(graph, out.data());
    return out;
}

void
NetworkEncoder::encodeInto(const dnn::Graph &graph, float *out) const
{
    const std::size_t layers = depth(graph);
    if (layers > maxLayers_) {
        fatal("NetworkEncoder: network '", graph.name(), "' has ", layers,
              " layers but the fitted layout allows ", maxLayers_);
    }
    std::fill(out, out + numFeatures(), 0.0f);
    std::size_t layer = 0;
    for (const auto &node : graph.nodes()) {
        if (node.kind == dnn::OpKind::Input)
            continue;
        float *slot = out + layer * featuresPerLayer();
        // One-hot operator id (kinds start after Input).
        const auto kind_idx =
            static_cast<std::size_t>(node.kind) - 1;
        GCM_ASSERT(kind_idx < kOpOneHot, "encode: bad op kind");
        slot[kind_idx] = 1.0f;
        float *params = slot + kOpOneHot;
        const dnn::TensorShape &in_shape =
            graph.node(node.inputs[0]).shape;
        params[0] = static_cast<float>(in_shape.h);
        params[1] = static_cast<float>(in_shape.c);
        params[2] = static_cast<float>(node.shape.h);
        params[3] = static_cast<float>(node.shape.c);
        params[4] = static_cast<float>(node.params.kernel);
        params[5] = static_cast<float>(node.params.stride);
        params[6] = static_cast<float>(node.params.padding);
        params[7] = node.params.groups > 1 ? 1.0f : 0.0f;
        params[8] =
            static_cast<float>(node.params.fused_activation);
        ++layer;
    }
}

std::vector<std::string>
NetworkEncoder::featureNames() const
{
    std::vector<std::string> names;
    names.reserve(numFeatures());
    for (std::size_t l = 0; l < maxLayers_; ++l) {
        const std::string prefix = "layer" + std::to_string(l) + ".";
        for (std::size_t k = 0; k < kOpOneHot; ++k) {
            names.push_back(
                prefix + "is_"
                + dnn::opKindName(static_cast<dnn::OpKind>(k + 1)));
        }
        for (const char *p : kParamNames)
            names.push_back(prefix + p);
    }
    return names;
}

} // namespace gcm::core
