#include "core/collaborative.hh"

#include <algorithm>

#include "core/signature.hh"
#include "core/training_set.hh"
#include "ml/metrics.hh"
#include "obs/obs.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace gcm::core
{

CollaborativeSimulation::CollaborativeSimulation(
    const ExperimentContext &ctx, std::size_t signature_size,
    bool anchor_normalization)
    : ctx_(ctx), anchorNormalization_(anchor_normalization)
{
    encodings_.reserve(ctx_.numNetworks());
    for (const auto &g : ctx_.suite())
        encodings_.push_back(ctx_.encoder().encode(g));

    // Fig. 12 setup: signature chosen with MIS over all networks.
    std::vector<std::size_t> all_devices(ctx_.fleet().size());
    for (std::size_t i = 0; i < all_devices.size(); ++i)
        all_devices[i] = i;
    SignatureConfig sig_cfg;
    sig_cfg.size = signature_size;
    signature_ = selectMisSignature(ctx_.latencyMatrix(all_devices),
                                    signature_size, sig_cfg);

    std::vector<bool> is_sig(ctx_.numNetworks(), false);
    for (std::size_t s : signature_)
        is_sig[s] = true;
    for (std::size_t n = 0; n < ctx_.numNetworks(); ++n) {
        if (!is_sig[n])
            nonSignature_.push_back(n);
    }
}

double
CollaborativeSimulation::anchorOf(std::size_t device_idx) const
{
    if (!anchorNormalization_)
        return 1.0;
    std::vector<double> sig_lat;
    sig_lat.reserve(signature_.size());
    for (std::size_t s : signature_)
        sig_lat.push_back(ctx_.latencyMs(device_idx, s));
    return signatureAnchor(sig_lat);
}

std::vector<float>
CollaborativeSimulation::signatureLatencies(std::size_t device_idx) const
{
    const double anchor = anchorOf(device_idx);
    std::vector<float> out(signature_.size());
    for (std::size_t k = 0; k < signature_.size(); ++k) {
        out[k] = static_cast<float>(
            ctx_.latencyMs(device_idx, signature_[k]) / anchor);
    }
    return out;
}

double
CollaborativeSimulation::deviceR2(const ml::GradientBoostedTrees &model,
                                  std::size_t device_idx) const
{
    // One segmented batch over every network: the head of row n is
    // its encoding, the tail this device's signature.
    const auto sig = signatureLatencies(device_idx);
    const double anchor = anchorOf(device_idx);
    const std::size_t nets = ctx_.numNetworks();
    std::vector<ml::FlatEnsemble::SegmentedRow> rows(nets);
    for (std::size_t n = 0; n < nets; ++n)
        rows[n] = {encodings_[n].data(), sig.data()};
    std::vector<double> y_pred(nets);
    model.flat().predictBatchSegmented(rows.data(), nets,
                                       ctx_.encoder().numFeatures(),
                                       y_pred.data());
    std::vector<double> y_true(nets);
    for (std::size_t n = 0; n < nets; ++n) {
        y_true[n] = ctx_.latencyMs(device_idx, n);
        y_pred[n] *= anchor;
    }
    return ml::r2Score(y_true, y_pred);
}

std::vector<CollaborativeStep>
CollaborativeSimulation::run(const CollaborativeConfig &config) const
{
    GCM_ASSERT(config.max_devices >= 1, "run: need at least one device");
    GCM_ASSERT(config.contribution_fraction > 0.0
                   && config.contribution_fraction <= 1.0,
               "run: contribution_fraction out of (0, 1]");
    Rng rng(config.seed);

    // Random device arrival order.
    std::vector<std::size_t> order(ctx_.fleet().size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rng.shuffle(order);
    const std::size_t rounds =
        std::min(config.max_devices, order.size());

    const auto per_device = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               config.contribution_fraction
               * static_cast<double>(nonSignature_.size())));

    std::vector<std::vector<float>> device_rows;
    std::vector<PairRow> rows;
    std::vector<CollaborativeStep> steps;
    steps.reserve(rounds);

    for (std::size_t t = 0; t < rounds; ++t) {
        const std::size_t d = order[t];
        const double anchor = anchorOf(d);
        device_rows.push_back(signatureLatencies(d));
        // The signature measurements are contributions too: they are
        // both the device's representation and training rows ("the
        // training set comprises all latency measurements contributed
        // by previously chosen hardware devices", Section V-A).
        for (std::size_t s : signature_)
            rows.push_back({s, t, ctx_.latencyMs(d, s) / anchor});
        // Plus a random slice of the remaining network set.
        Rng dev_rng = rng.fork(t);
        const auto picks = dev_rng.sampleWithoutReplacement(
            nonSignature_.size(), per_device);
        for (std::size_t p : picks) {
            const std::size_t n = nonSignature_[p];
            rows.push_back({n, t, ctx_.latencyMs(d, n) / anchor});
        }

        ml::GradientBoostedTrees model(config.gbt);
        {
            const obs::TraceSpan fit_span("collab.fit");
            model.train(pairDataset(encodings_, device_rows, rows));
        }

        double sum_r2 = 0.0;
        {
            const obs::TraceSpan score_span("collab.score");
            for (std::size_t k = 0; k <= t; ++k)
                sum_r2 += deviceR2(model, order[k]);
        }
        CollaborativeStep step;
        step.num_devices = t + 1;
        step.avg_r2 = sum_r2 / static_cast<double>(t + 1);
        step.total_measurements = rows.size();
        steps.push_back(step);
    }
    return steps;
}

std::vector<std::pair<std::size_t, double>>
CollaborativeSimulation::isolatedCurve(std::size_t device_idx,
                                       std::uint64_t seed,
                                       const ml::GbtParams &params,
                                       std::size_t stride) const
{
    GCM_ASSERT(device_idx < ctx_.fleet().size(),
               "isolatedCurve: device out of range");
    GCM_ASSERT(stride >= 1, "isolatedCurve: zero stride");
    const std::size_t net_f = ctx_.encoder().numFeatures();
    Rng rng(seed);
    std::vector<std::size_t> order(ctx_.numNetworks());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rng.shuffle(order);

    // Test set: all networks on this device.
    ml::Dataset test(net_f);
    for (std::size_t n = 0; n < ctx_.numNetworks(); ++n) {
        test.addRow(encodings_[n], ctx_.latencyMs(device_idx, n));
    }

    std::vector<std::pair<std::size_t, double>> curve;
    for (std::size_t k = stride; k <= order.size(); k += stride) {
        ml::Dataset train(net_f);
        for (std::size_t i = 0; i < k; ++i) {
            train.addRow(encodings_[order[i]],
                         ctx_.latencyMs(device_idx, order[i]));
        }
        ml::GradientBoostedTrees model(params);
        model.train(train);
        curve.emplace_back(k,
                           ml::r2Score(test.labels(), model.predict(test)));
    }
    return curve;
}

double
CollaborativeSimulation::collaborativeR2ForDevice(
    std::size_t device_idx, const CollaborativeConfig &config) const
{
    GCM_ASSERT(device_idx < ctx_.fleet().size(),
               "collaborativeR2ForDevice: device out of range");
    Rng rng(config.seed ^ 0xc0ffee);

    // config.max_devices random collaborators, the target among them.
    std::vector<std::size_t> others;
    for (std::size_t i = 0; i < ctx_.fleet().size(); ++i) {
        if (i != device_idx)
            others.push_back(i);
    }
    rng.shuffle(others);
    std::vector<std::size_t> members{device_idx};
    for (std::size_t i = 0;
         i + 1 < config.max_devices && i < others.size(); ++i) {
        members.push_back(others[i]);
    }

    const auto per_device = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               config.contribution_fraction
               * static_cast<double>(nonSignature_.size())));

    std::vector<std::vector<float>> device_rows;
    std::vector<PairRow> rows;
    for (std::size_t t = 0; t < members.size(); ++t) {
        const std::size_t d = members[t];
        const double anchor = anchorOf(d);
        device_rows.push_back(signatureLatencies(d));
        for (std::size_t s : signature_)
            rows.push_back({s, t, ctx_.latencyMs(d, s) / anchor});
        Rng dev_rng = rng.fork(t);
        const auto picks = dev_rng.sampleWithoutReplacement(
            nonSignature_.size(), per_device);
        for (std::size_t p : picks) {
            const std::size_t n = nonSignature_[p];
            rows.push_back({n, t, ctx_.latencyMs(d, n) / anchor});
        }
    }
    ml::GradientBoostedTrees model(config.gbt);
    {
        const obs::TraceSpan fit_span("collab.fit");
        model.train(pairDataset(encodings_, device_rows, rows));
    }
    const obs::TraceSpan score_span("collab.score");
    return deviceR2(model, device_idx);
}

} // namespace gcm::core
