#include "core/cost_model.hh"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <set>

#include "core/training_set.hh"
#include "util/error.hh"

namespace gcm::core
{

SignatureCostModel
SignatureCostModel::train(const std::vector<dnn::Graph> &suite,
                          const std::vector<std::vector<double>> &latencies)
{
    return train(suite, latencies, Config{});
}

SignatureCostModel
SignatureCostModel::train(const std::vector<dnn::Graph> &suite,
                          const std::vector<std::vector<double>> &latencies,
                          const Config &config)
{
    GCM_ASSERT(!suite.empty(), "SignatureCostModel: empty suite");
    if (latencies.size() != suite.size()) {
        fatal("SignatureCostModel: latency matrix has ",
              latencies.size(), " rows for ", suite.size(), " networks");
    }
    const std::size_t num_devices = latencies[0].size();
    for (const auto &row : latencies) {
        if (row.size() != num_devices)
            fatal("SignatureCostModel: ragged latency matrix");
    }
    if (num_devices == 0)
        fatal("SignatureCostModel: no training devices");
    for (std::size_t n = 0; n < latencies.size(); ++n) {
        for (std::size_t d = 0; d < num_devices; ++d) {
            const double v = latencies[n][d];
            if (!std::isfinite(v) || v <= 0.0) {
                fatal("SignatureCostModel: latency of network ", n,
                      " on device column ", d,
                      " is not a positive finite value (", v,
                      "); sparse matrices must be imputed first — "
                      "see core/imputation.hh");
            }
        }
    }

    SignatureCostModel model;
    if (!config.pinned_signature.empty()) {
        std::set<std::size_t> uniq;
        for (std::size_t s : config.pinned_signature) {
            if (s >= suite.size()) {
                fatal("SignatureCostModel: pinned signature index ", s,
                      " is outside the ", suite.size(),
                      "-network suite");
            }
            if (!uniq.insert(s).second)
                fatal("SignatureCostModel: pinned signature index ", s,
                      " is duplicated");
        }
        if (config.pinned_signature.size() >= suite.size()) {
            fatal("SignatureCostModel: pinned signature covers the "
                  "whole suite; nothing left to predict");
        }
        model.signature_ = config.pinned_signature;
    } else {
        const std::size_t size = config.selection.size;
        if (size < 1 || size >= suite.size()) {
            fatal("SignatureCostModel: signature size ", size,
                  " is outside [1, ", suite.size() - 1, "] for a ",
                  suite.size(), "-network suite");
        }
        model.signature_ =
            selectSignature(latencies, config.method, config.selection);
    }
    model.signatureNames_.reserve(model.signature_.size());
    for (std::size_t s : model.signature_)
        model.signatureNames_.push_back(suite[s].name());

    // Encoder layout with headroom for deeper unseen networks.
    const NetworkEncoder fitted(suite);
    model.encoder_ = std::make_unique<NetworkEncoder>(
        fitted.maxLayers() + config.layer_headroom);

    std::vector<bool> is_sig(suite.size(), false);
    for (std::size_t s : model.signature_)
        is_sig[s] = true;

    // Each network is encoded once and each device's signature tail
    // built once; the rows only pair their keys (core/training_set.hh).
    model.anchorNormalization_ = config.anchor_normalization;
    std::vector<std::vector<float>> networks;
    networks.reserve(suite.size());
    for (const auto &g : suite)
        networks.push_back(model.encoder_->encode(g));
    std::vector<std::vector<float>> devices(
        num_devices, std::vector<float>(model.signature_.size()));
    std::vector<PairRow> rows;
    rows.reserve(num_devices * (suite.size() - model.signature_.size()));
    for (std::size_t d = 0; d < num_devices; ++d) {
        std::vector<double> sig_lat;
        sig_lat.reserve(model.signature_.size());
        for (std::size_t s : model.signature_)
            sig_lat.push_back(latencies[s][d]);
        const double anchor = model.signatureTail(sig_lat, devices[d].data());
        for (std::size_t n = 0; n < suite.size(); ++n) {
            if (!is_sig[n])
                rows.push_back({n, d, latencies[n][d] / anchor});
        }
    }

    model.booster_ = ml::GradientBoostedTrees(config.gbt);
    model.booster_.train(pairDataset(networks, devices, rows));
    return model;
}

double
SignatureCostModel::anchorOf(
    const std::vector<double> &signature_latencies_ms) const
{
    return anchorNormalization_ ? signatureAnchor(signature_latencies_ms)
                                : 1.0;
}

double
SignatureCostModel::predictMs(
    const dnn::Graph &network,
    const std::vector<double> &signature_latencies_ms) const
{
    std::vector<float> row(featureWidth());
    encoder_->encodeInto(network, row.data());
    const double anchor = finishQueryRow(signature_latencies_ms,
                                         row.data());
    // Compiled and node-walker paths are bit-identical by the
    // ml/flat_ensemble.hh contract, so hot-path callers may compile()
    // without changing any prediction.
    const double raw = flat_ ? flat_->predictRow(row.data())
                             : booster_.predictRow(row.data());
    return raw * anchor;
}

void
SignatureCostModel::compile()
{
    if (!flat_) {
        flat_ = std::make_shared<const ml::FlatEnsemble>(
            booster_.compile());
    }
}

const ml::FlatEnsemble &
SignatureCostModel::flat() const
{
    GCM_ASSERT(flat_ != nullptr,
               "SignatureCostModel::flat: compile() not called");
    return *flat_;
}

std::size_t
SignatureCostModel::featureWidth() const
{
    return encoder_->numFeatures() + signature_.size();
}

std::size_t
SignatureCostModel::networkFeatureWidth() const
{
    return encoder_->numFeatures();
}

std::vector<float>
SignatureCostModel::encodeNetwork(const dnn::Graph &network) const
{
    return encoder_->encode(network);
}

double
SignatureCostModel::finishQueryRow(
    const std::vector<double> &signature_latencies_ms, float *row) const
{
    return signatureTail(signature_latencies_ms,
                         row + encoder_->numFeatures());
}

double
SignatureCostModel::signatureTail(
    const std::vector<double> &signature_latencies_ms, float *tail) const
{
    if (signature_latencies_ms.size() != signature_.size()) {
        fatal("predictMs: expected ", signature_.size(),
              " signature latencies, got ",
              signature_latencies_ms.size());
    }
    const double anchor = anchorOf(signature_latencies_ms);
    for (std::size_t k = 0; k < signature_.size(); ++k) {
        tail[k] =
            static_cast<float>(signature_latencies_ms[k] / anchor);
    }
    return anchor;
}

} // namespace gcm::core

namespace gcm::core
{

void
SignatureCostModel::serialize(std::ostream &os) const
{
    os << "gcm-cost-model v1\n";
    os << "anchor_normalization " << (anchorNormalization_ ? 1 : 0)
       << "\n";
    os << "max_layers " << encoder_->maxLayers() << "\n";
    os << "signature " << signature_.size() << "\n";
    for (std::size_t k = 0; k < signature_.size(); ++k) {
        const std::string &name = signatureNames_[k];
        if (name.find_first_of(" \t\n") != std::string::npos)
            fatal("serialize: signature name contains whitespace: ",
                  name);
        os << signature_[k] << ' ' << name << "\n";
    }
    booster_.serialize(os);
}

namespace
{

/** Largest signature and layer counts an artifact may declare. */
constexpr std::size_t kMaxSignature = 4096;
constexpr std::size_t kMaxLayers = 4096;

} // namespace

SignatureCostModel
SignatureCostModel::deserialize(std::istream &is)
{
    std::string magic, version, tag;
    if (!(is >> magic >> version) || magic != "gcm-cost-model"
        || version != "v1") {
        fatal("SignatureCostModel::deserialize: bad header (expected "
              "'gcm-cost-model v1')");
    }
    SignatureCostModel model;
    int anchor_flag = 1;
    if (!(is >> tag >> anchor_flag) || tag != "anchor_normalization")
        fatal("SignatureCostModel::deserialize: bad anchor flag");
    model.anchorNormalization_ = anchor_flag != 0;
    std::size_t max_layers = 0, sig_count = 0;
    if (!(is >> tag >> max_layers) || tag != "max_layers"
        || max_layers == 0 || max_layers > kMaxLayers) {
        fatal("SignatureCostModel::deserialize: bad max_layers");
    }
    if (!(is >> tag >> sig_count) || tag != "signature"
        || sig_count == 0 || sig_count > kMaxSignature) {
        fatal("SignatureCostModel::deserialize: bad signature count");
    }
    model.encoder_ = std::make_unique<NetworkEncoder>(max_layers);
    for (std::size_t k = 0; k < sig_count; ++k) {
        std::size_t index = 0;
        std::string name;
        if (!(is >> index >> name))
            fatal("SignatureCostModel::deserialize: bad signature row");
        model.signature_.push_back(index);
        model.signatureNames_.push_back(std::move(name));
    }
    model.booster_ = ml::GradientBoostedTrees::deserialize(is);
    // Query rows are featureWidth() floats wide: a booster of any
    // other width would read past them.
    if (model.booster_.featureImportance().size() != model.featureWidth()) {
        fatal("SignatureCostModel::deserialize: booster has ",
              model.booster_.featureImportance().size(),
              " features but the layout gives ", model.featureWidth());
    }
    return model;
}

} // namespace gcm::core
