#include "core/evaluation.hh"

#include "core/hw_features.hh"
#include "core/training_set.hh"
#include "ml/metrics.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace gcm::core
{

DeviceSplit
splitDevices(std::size_t num_devices, double test_fraction,
             std::uint64_t seed)
{
    GCM_ASSERT(test_fraction > 0.0 && test_fraction < 1.0,
               "splitDevices: test_fraction out of (0, 1)");
    Rng rng(seed);
    std::vector<std::size_t> order(num_devices);
    for (std::size_t i = 0; i < num_devices; ++i)
        order[i] = i;
    rng.shuffle(order);
    const auto test_n = static_cast<std::size_t>(
        static_cast<double>(num_devices) * test_fraction);
    GCM_ASSERT(test_n > 0 && test_n < num_devices,
               "splitDevices: degenerate split");
    DeviceSplit split;
    split.test.assign(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(test_n));
    split.train.assign(order.begin() + static_cast<std::ptrdiff_t>(test_n),
                       order.end());
    return split;
}

EvaluationHarness::EvaluationHarness(const ExperimentContext &ctx,
                                     HarnessOptions options)
    : ctx_(ctx), options_(options)
{
    encodings_.reserve(ctx_.numNetworks());
    for (const auto &g : ctx_.suite())
        encodings_.push_back(ctx_.encoder().encode(g));
}

namespace
{

/**
 * Score a booster on a (network, device) test set. `anchors` (one per
 * row, or empty for 1) scale targets and predictions back to ms.
 */
ModelEvaluation
score(const ml::GradientBoostedTrees &model, const ml::BlockedDataset &test,
      const std::vector<double> &anchors)
{
    ModelEvaluation eval;
    eval.y_true = test.labels();
    eval.y_pred = predictPairs(model.flat(), test);
    for (std::size_t i = 0; i < anchors.size(); ++i) {
        eval.y_true[i] *= anchors[i];
        eval.y_pred[i] *= anchors[i];
    }
    eval.r2 = ml::r2Score(eval.y_true, eval.y_pred);
    eval.rmse_ms = ml::rmse(eval.y_true, eval.y_pred);
    eval.mape_pct = ml::mape(eval.y_true, eval.y_pred);
    return eval;
}

} // namespace

ModelEvaluation
EvaluationHarness::evalStaticFeatureModel(const DeviceSplit &split,
                                          const ml::GbtParams &params) const
{
    GCM_ASSERT(!split.train.empty() && !split.test.empty(),
               "evalStaticFeatureModel: empty split");
    const StaticHardwareEncoder hw;

    auto build = [&](const std::vector<std::size_t> &devices) {
        std::vector<std::vector<float>> hw_rows;
        std::vector<PairRow> rows;
        for (std::size_t d : devices) {
            hw_rows.push_back(hw.encode(ctx_.fleet().device(d), ctx_.fleet()));
            for (std::size_t n = 0; n < ctx_.numNetworks(); ++n)
                rows.push_back({n, hw_rows.size() - 1, ctx_.latencyMs(d, n)});
        }
        return pairDataset(encodings_, hw_rows, rows);
    };

    ml::GradientBoostedTrees model(params);
    model.train(build(split.train));
    return score(model, build(split.test), {});
}

EvaluationHarness::SignatureData
EvaluationHarness::buildSignatureDataset(
    const std::vector<std::size_t> &devices,
    const std::vector<std::size_t> &signature) const
{
    std::vector<bool> is_signature(ctx_.numNetworks(), false);
    for (std::size_t s : signature) {
        GCM_ASSERT(s < ctx_.numNetworks(),
                   "signature index out of range");
        is_signature[s] = true;
    }

    std::vector<std::vector<float>> device_rows;
    std::vector<PairRow> rows;
    std::vector<double> anchors;
    for (std::size_t d : devices) {
        // The device's hardware representation: measured latencies of
        // the signature networks on it, optionally rescaled by the
        // device anchor (geometric mean of the signature latencies).
        std::vector<double> sig_lat;
        for (std::size_t s : signature)
            sig_lat.push_back(ctx_.latencyMs(d, s));
        const double anchor =
            options_.anchor_normalization ? signatureAnchor(sig_lat) : 1.0;
        std::vector<float> rep;
        for (double ms : sig_lat)
            rep.push_back(static_cast<float>(ms / anchor));
        device_rows.push_back(std::move(rep));
        for (std::size_t n = 0; n < ctx_.numNetworks(); ++n) {
            if (is_signature[n])
                continue; // paper: signature rows are discarded
            rows.push_back({n, device_rows.size() - 1,
                            ctx_.latencyMs(d, n) / anchor});
            anchors.push_back(anchor);
        }
    }
    return {pairDataset(encodings_, device_rows, rows), std::move(anchors)};
}

ModelEvaluation
EvaluationHarness::evalWithSignature(
    const DeviceSplit &split, const std::vector<std::size_t> &signature,
    const ml::GbtParams &params) const
{
    GCM_ASSERT(!split.train.empty() && !split.test.empty(),
               "evalWithSignature: empty split");
    GCM_ASSERT(!signature.empty(), "evalWithSignature: empty signature");
    const SignatureData train =
        buildSignatureDataset(split.train, signature);
    const SignatureData test =
        buildSignatureDataset(split.test, signature);
    ml::GradientBoostedTrees model(params);
    model.train(train.dataset);
    // Denormalize: metrics are always reported in milliseconds.
    ModelEvaluation eval = score(model, test.dataset, test.anchors);
    eval.signature = signature;
    return eval;
}

ModelEvaluation
EvaluationHarness::evalSignatureModel(const DeviceSplit &split,
                                      SignatureMethod method,
                                      const SignatureConfig &config,
                                      const ml::GbtParams &params) const
{
    // Selection sees training devices only (Section IV-A).
    const auto train_latencies = ctx_.latencyMatrix(split.train);
    const auto signature = selectSignature(train_latencies, method, config);
    return evalWithSignature(split, signature, params);
}

} // namespace gcm::core
