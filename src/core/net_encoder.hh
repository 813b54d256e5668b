/**
 * @file
 * Network representation (paper Section III-B / Fig. 7).
 *
 * Each layer of the deployment (int8) graph is encoded as a one-hot
 * operator id followed by its numeric parameters (input/output
 * geometry, kernel, stride, padding, grouping, fused activation); the
 * per-layer vectors are concatenated in topological order and padded
 * ("masked") with zeros to the depth of the deepest network in the
 * fitted suite, giving every network a fixed-width feature vector.
 */

#ifndef GCM_CORE_NET_ENCODER_HH
#define GCM_CORE_NET_ENCODER_HH

#include <string>
#include <vector>

#include "dnn/graph.hh"

namespace gcm::core
{

/** Fixed-layout layer-wise network encoder. */
class NetworkEncoder
{
  public:
    /**
     * Fit the layout on a network suite: the padded depth is the
     * maximum operator count (excluding Input) over the suite.
     */
    explicit NetworkEncoder(const std::vector<dnn::Graph> &suite);

    /** Construct with an explicit padded depth. */
    explicit NetworkEncoder(std::size_t max_layers);

    std::size_t maxLayers() const { return maxLayers_; }

    /** Layers `graph` takes in the layout: every node but Input. */
    static std::size_t depth(const dnn::Graph &graph);

    std::size_t featuresPerLayer() const;
    std::size_t numFeatures() const;

    /**
     * Encode one network. Throws GcmError when the network is deeper
     * than the fitted layout.
     */
    std::vector<float> encode(const dnn::Graph &graph) const;

    /** encode() into out[0..numFeatures()) (a query row's prefix). */
    void encodeInto(const dnn::Graph &graph, float *out) const;

    /** Human-readable feature names (layerNNN.<field>). */
    std::vector<std::string> featureNames() const;

  private:
    std::size_t maxLayers_;
};

} // namespace gcm::core

#endif // GCM_CORE_NET_ENCODER_HH
