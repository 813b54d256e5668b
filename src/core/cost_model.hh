/**
 * @file
 * SignatureCostModel — the library's headline public API.
 *
 * Encapsulates the paper's full recipe: pick a signature set from a
 * training latency matrix, represent every device by its measured
 * signature latencies, encode networks layer-wise, and train an
 * XGBoost-style booster to predict latency. A trained model predicts
 * the latency of an unseen network on an unseen device from nothing
 * but the device's signature measurements.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *   auto model = SignatureCostModel::train(suite, latencies, cfg);
 *   double ms = model.predictMs(new_net, device_signature_latencies);
 */

#ifndef GCM_CORE_COST_MODEL_HH
#define GCM_CORE_COST_MODEL_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/net_encoder.hh"
#include "core/signature.hh"
#include "dnn/graph.hh"
#include "ml/flat_ensemble.hh"
#include "ml/gbt.hh"

namespace gcm::core
{

/** End-to-end signature-based cost model. */
class SignatureCostModel
{
  public:
    /** Training configuration. */
    struct Config
    {
        SignatureMethod method = SignatureMethod::MutualInformation;
        SignatureConfig selection;
        /**
         * When non-empty, skip signature selection and use exactly
         * these suite indices as the signature set. Retraining
         * pipelines (fleet/loop.hh) pin the deployed signature this
         * way: fielded clients have already measured those networks,
         * so a retrain must not silently move the signature out from
         * under their device tables. Indices must be unique and in
         * range; validated by train().
         */
        std::vector<std::size_t> pinned_signature;
        ml::GbtParams gbt;
        /**
         * Extra padded layers beyond the training suite's deepest
         * network, so moderately deeper unseen networks still encode.
         */
        std::size_t layer_headroom = 16;
        /**
         * Scale-free representation: divide signature features and
         * the target by the device anchor (geometric mean of its
         * signature latencies) and scale predictions back. Makes the
         * model generalize to device-speed ranges outside the
         * training fleet (see Table I reproduction).
         */
        bool anchor_normalization = true;
    };

    /**
     * Train a cost model.
     *
     * @param suite Deployment (int8) networks, index-aligned with the
     *        latency matrix rows.
     * @param latencies latencies[n][d]: latency (ms) of network n on
     *        training device d.
     * @param config Options.
     */
    static SignatureCostModel
    train(const std::vector<dnn::Graph> &suite,
          const std::vector<std::vector<double>> &latencies,
          const Config &config);

    /** Train with the default configuration. */
    static SignatureCostModel
    train(const std::vector<dnn::Graph> &suite,
          const std::vector<std::vector<double>> &latencies);

    /** Indices of the signature networks within the training suite. */
    const std::vector<std::size_t> &signature() const { return signature_; }

    /** Names of the signature networks (what a new device must run). */
    const std::vector<std::string> &signatureNames() const
    {
        return signatureNames_;
    }

    /**
     * Predict the latency of a network on a device.
     *
     * @param network Deployment (int8) graph; may be unseen.
     * @param signature_latencies_ms Measured latencies of the
     *        signature networks on the target device, in
     *        signatureNames() order.
     */
    double predictMs(const dnn::Graph &network,
                     const std::vector<double> &signature_latencies_ms)
        const;

    /**
     * The booster's flat inference form (ml/flat_ensemble.hh), built
     * when the booster was trained or loaded; predictMs and the
     * batched query path below both predict through it.
     */
    const ml::FlatEnsemble &flat() const { return booster_.flat(); }

    /** Booster row width: network features + signature slots. */
    std::size_t featureWidth() const;

    /** Width of the network-feature prefix of a query row. */
    std::size_t networkFeatureWidth() const;

    /**
     * Encode a network into the feature prefix a query row starts
     * with (pure; reusable across devices and, per model version,
     * cacheable by callers). Throws GcmError when the network does
     * not fit the encoder layout.
     */
    std::vector<float> encodeNetwork(const dnn::Graph &network) const;

    /**
     * Finish a query row in place: writes the anchor-normalized
     * signature latencies into row[networkFeatureWidth()..) and
     * returns the anchor the prediction must be scaled back by.
     * `row` holds featureWidth() floats with the network prefix
     * already written (encodeNetwork).
     */
    double finishQueryRow(
        const std::vector<double> &signature_latencies_ms,
        float *row) const;

    /**
     * Segmented-row form of finishQueryRow: writes the
     * anchor-normalized signature latencies into tail[0..signature
     * size) and returns the anchor. Paired with encodeNetwork() as
     * the head, this is a query row for
     * ml::FlatEnsemble::predictBatchSegmented with head width
     * networkFeatureWidth().
     */
    double signatureTail(
        const std::vector<double> &signature_latencies_ms,
        float *tail) const;

    const NetworkEncoder &encoder() const { return *encoder_; }

    /**
     * Serialize the trained model ("gcm-cost-model v1"): encoder
     * layout, signature (indices + names) and the booster. Network
     * names containing whitespace are not supported by the format.
     */
    void serialize(std::ostream &os) const;

    /** Load a model written by serialize(). Throws GcmError. */
    static SignatureCostModel deserialize(std::istream &is);

  private:
    SignatureCostModel() = default;

    /** signatureAnchor(), or 1 when anchor normalization is off. */
    double anchorOf(const std::vector<double> &signature_latencies_ms)
        const;

    bool anchorNormalization_ = true;
    std::unique_ptr<NetworkEncoder> encoder_;
    std::vector<std::size_t> signature_;
    std::vector<std::string> signatureNames_;
    ml::GradientBoostedTrees booster_;
};

} // namespace gcm::core

#endif // GCM_CORE_COST_MODEL_HH
