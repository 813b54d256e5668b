/**
 * @file
 * Collaborative workload characterization (paper Section V).
 *
 * Devices join a shared repository one at a time. Each contributes
 * (a) its hardware representation — measured latencies of the common
 * signature set — and (b) latency measurements on a small fraction of
 * randomly chosen networks. After every arrival a cost model is
 * retrained on all contributions and scored on *all* networks for the
 * devices seen so far (Fig. 12). The isolated alternative trains a
 * per-device model on progressively more of its own measurements
 * (Fig. 13); the comparison quantifies the order-of-magnitude
 * measurement savings of collaboration.
 */

#ifndef GCM_CORE_COLLABORATIVE_HH
#define GCM_CORE_COLLABORATIVE_HH

#include <cstdint>
#include <vector>

#include "core/experiment_context.hh"
#include "ml/gbt.hh"

namespace gcm::core
{

/** Collaborative-simulation parameters. */
struct CollaborativeConfig
{
    std::size_t signature_size = 10;
    /** Fraction of non-signature networks each device contributes. */
    double contribution_fraction = 0.1;
    /** Devices joining the repository (iterations of Fig. 12). */
    std::size_t max_devices = 50;
    std::uint64_t seed = 5;
    ml::GbtParams gbt;
};

/** One Fig. 12 iteration. */
struct CollaborativeStep
{
    std::size_t num_devices = 0;
    /** Mean per-device R^2 over all networks, devices seen so far. */
    double avg_r2 = 0.0;
    /** Total training measurements contributed so far. */
    std::size_t total_measurements = 0;
};

/** Simulator of the collaborative repository. */
class CollaborativeSimulation
{
  public:
    /**
     * @param ctx Built dataset.
     * @param signature_size Signature chosen by MIS over all networks
     *        (the paper's Fig. 12 setup).
     * @param anchor_normalization Scale-free representation (see
     *        HarnessOptions::anchor_normalization).
     */
    explicit CollaborativeSimulation(const ExperimentContext &ctx,
                                     std::size_t signature_size = 10,
                                     bool anchor_normalization = true);

    const std::vector<std::size_t> &signature() const { return signature_; }

    /** Fig. 12: accuracy evolution as devices join. */
    std::vector<CollaborativeStep> run(const CollaborativeConfig &config)
        const;

    /**
     * Fig. 13 (isolated): per-device model trained on its own
     * measurements only; returns R^2 over all networks as a function
     * of training-set size k = stride, 2*stride, ... (k <= total).
     */
    std::vector<std::pair<std::size_t, double>>
    isolatedCurve(std::size_t device_idx, std::uint64_t seed,
                  const ml::GbtParams &params = {},
                  std::size_t stride = 1) const;

    /**
     * Fig. 13 (collaborative): R^2 on the target device's full
     * network set when it is one of config.max_devices collaborators
     * contributing only the signature plus a handful of networks.
     */
    double collaborativeR2ForDevice(std::size_t device_idx,
                                    const CollaborativeConfig &config)
        const;

  private:
    /** Signature latencies of one device, anchor-rescaled. */
    std::vector<float> signatureLatencies(std::size_t device_idx) const;

    /** Device anchor (geometric mean of its signature latencies). */
    double anchorOf(std::size_t device_idx) const;

    /** Per-device R^2 of a model over all networks. */
    double deviceR2(const ml::GradientBoostedTrees &model,
                    std::size_t device_idx) const;

    const ExperimentContext &ctx_;
    bool anchorNormalization_;
    std::vector<std::vector<float>> encodings_;
    std::vector<std::size_t> signature_;
    std::vector<std::size_t> nonSignature_;
};

} // namespace gcm::core

#endif // GCM_CORE_COLLABORATIVE_HH
