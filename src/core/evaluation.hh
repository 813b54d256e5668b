/**
 * @file
 * Evaluation harness for the paper's Section IV experiments.
 *
 * Implements the exact methodology of Section IV-A: devices are split
 * into train (70%) and test (30%) sets; the signature set is chosen
 * using *training* devices only; the signature networks' rows are
 * then discarded from both sets; an XGBoost-style model is trained on
 * (network encoding, signature latencies) -> latency and scored with
 * R^2 on the test devices.
 */

#ifndef GCM_CORE_EVALUATION_HH
#define GCM_CORE_EVALUATION_HH

#include <cstdint>
#include <vector>

#include "core/experiment_context.hh"
#include "core/signature.hh"
#include "ml/gbt.hh"

namespace gcm::core
{

/** A train/test partition of device indices. */
struct DeviceSplit
{
    std::vector<std::size_t> train;
    std::vector<std::size_t> test;
};

/** Random 70/30-style split of n devices. */
DeviceSplit splitDevices(std::size_t num_devices, double test_fraction,
                         std::uint64_t seed);

/** Outcome of one cost-model experiment. */
struct ModelEvaluation
{
    double r2 = 0.0;
    double rmse_ms = 0.0;
    double mape_pct = 0.0;
    /** Test-set targets and predictions (for scatter output). */
    std::vector<double> y_true;
    std::vector<double> y_pred;
    /** Signature networks used (empty for the static-feature model). */
    std::vector<std::size_t> signature;
};

/** Evaluation options. */
struct HarnessOptions
{
    /**
     * Scale-free signature representation: divide the signature
     * latencies (features) and the target by the device's anchor —
     * the geometric mean of its signature latencies — and multiply
     * predictions back. Metrics stay in milliseconds. This is what
     * lets the boosted trees generalize across the adversarial
     * cluster splits of Table I: raw-scale trees cannot extrapolate
     * to device-speed ranges absent from training (see
     * bench_ablation_design for the comparison).
     */
    bool anchor_normalization = true;
};

/** Runs the paper's experiments on a built context. */
class EvaluationHarness
{
  public:
    explicit EvaluationHarness(const ExperimentContext &ctx,
                               HarnessOptions options = {});

    /**
     * Fig. 8: train with the static hardware representation (CPU
     * one-hot + frequency + RAM) and score on test devices.
     */
    ModelEvaluation evalStaticFeatureModel(
        const DeviceSplit &split, const ml::GbtParams &params = {}) const;

    /**
     * Fig. 9/10/11 and Table I: train with the signature-latency
     * hardware representation.
     *
     * @param split Device partition.
     * @param method Signature selection method.
     * @param config Selection options (size, seed, gamma, ...).
     * @param params Booster hyperparameters.
     */
    ModelEvaluation evalSignatureModel(
        const DeviceSplit &split, SignatureMethod method,
        const SignatureConfig &config,
        const ml::GbtParams &params = {}) const;

    /** Same, with an externally chosen signature set. */
    ModelEvaluation evalWithSignature(
        const DeviceSplit &split,
        const std::vector<std::size_t> &signature,
        const ml::GbtParams &params = {}) const;

    /** Cached per-network encodings (index-aligned with the suite). */
    const std::vector<std::vector<float>> &encodings() const
    {
        return encodings_;
    }

  private:
    struct SignatureData
    {
        ml::BlockedDataset dataset;
        /** Per-row anchor (1.0 when normalization is off). */
        std::vector<double> anchors;
    };

    /**
     * Assemble the (network encoding ++ signature latencies) dataset
     * over a device set, skipping signature networks. Device key k is
     * devices[k].
     */
    SignatureData buildSignatureDataset(
        const std::vector<std::size_t> &devices,
        const std::vector<std::size_t> &signature) const;

    const ExperimentContext &ctx_;
    HarnessOptions options_;
    std::vector<std::vector<float>> encodings_;
};

} // namespace gcm::core

#endif // GCM_CORE_EVALUATION_HH
