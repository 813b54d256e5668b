/**
 * @file
 * Unit tests for the SignatureCostModel public API.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "core/cost_model.hh"
#include "dnn/generator.hh"
#include "dnn/quantize.hh"
#include "ml/metrics.hh"
#include "testing_support.hh"
#include "util/error.hh"
#include "util/parallel.hh"

using namespace gcm;
using namespace gcm::core;

namespace
{

/** Latency matrix over all devices of the small context. */
std::vector<std::vector<double>>
allLatencies(const ExperimentContext &ctx)
{
    std::vector<std::size_t> devs(ctx.fleet().size());
    for (std::size_t i = 0; i < devs.size(); ++i)
        devs[i] = i;
    return ctx.latencyMatrix(devs);
}

} // namespace

TEST(CostModel, TrainAndPredictInRange)
{
    const auto &ctx = gcmtest::smallContext();
    SignatureCostModel::Config cfg;
    cfg.gbt = gcmtest::fastGbt();
    const auto model =
        SignatureCostModel::train(ctx.suite(), allLatencies(ctx), cfg);
    EXPECT_EQ(model.signature().size(), 10u);
    EXPECT_EQ(model.signatureNames().size(), 10u);

    // Predict a non-signature network on device 0.
    std::vector<double> sig_lat;
    for (std::size_t s : model.signature())
        sig_lat.push_back(ctx.latencyMs(0, s));
    std::size_t probe = 0;
    while (std::find(model.signature().begin(), model.signature().end(),
                     probe)
           != model.signature().end()) {
        ++probe;
    }
    const double pred =
        model.predictMs(ctx.suite()[probe], sig_lat);
    const double actual = ctx.latencyMs(0, probe);
    EXPECT_GT(pred, 0.0);
    EXPECT_NEAR(pred, actual, 0.8 * actual + 10.0);
}

TEST(CostModel, AccurateAcrossDevicesAndNetworks)
{
    const auto &ctx = gcmtest::smallContext();
    SignatureCostModel::Config cfg;
    cfg.gbt = gcmtest::fastGbt();
    const auto model =
        SignatureCostModel::train(ctx.suite(), allLatencies(ctx), cfg);
    std::vector<double> y_true, y_pred;
    for (std::size_t d = 0; d < ctx.fleet().size(); ++d) {
        std::vector<double> sig_lat;
        for (std::size_t s : model.signature())
            sig_lat.push_back(ctx.latencyMs(d, s));
        for (std::size_t n = 0; n < ctx.numNetworks(); ++n) {
            y_true.push_back(ctx.latencyMs(d, n));
            y_pred.push_back(model.predictMs(ctx.suite()[n], sig_lat));
        }
    }
    // Training-set fit; strong, subject to session noise.
    EXPECT_GT(ml::r2Score(y_true, y_pred), 0.8);
}

TEST(CostModel, PredictsUnseenNetwork)
{
    const auto &ctx = gcmtest::smallContext();
    SignatureCostModel::Config cfg;
    cfg.gbt = gcmtest::fastGbt();
    const auto model =
        SignatureCostModel::train(ctx.suite(), allLatencies(ctx), cfg);
    // Brand-new random network, never in the training suite.
    dnn::RandomNetworkGenerator gen(dnn::SearchSpace{}, 987);
    const dnn::Graph fresh = dnn::quantize(gen.generate("fresh"));
    std::vector<double> sig_lat;
    for (std::size_t s : model.signature())
        sig_lat.push_back(ctx.latencyMs(0, s));
    EXPECT_GT(model.predictMs(fresh, sig_lat), 0.0);
}

TEST(CostModel, SelectionMethodIsConfigurable)
{
    const auto &ctx = gcmtest::smallContext();
    SignatureCostModel::Config cfg;
    cfg.gbt = gcmtest::fastGbt();
    cfg.method = SignatureMethod::RandomSampling;
    cfg.selection.size = 5;
    const auto model =
        SignatureCostModel::train(ctx.suite(), allLatencies(ctx), cfg);
    EXPECT_EQ(model.signature().size(), 5u);
}

TEST(CostModel, WrongSignatureLengthThrows)
{
    const auto &ctx = gcmtest::smallContext();
    SignatureCostModel::Config cfg;
    cfg.gbt = gcmtest::fastGbt();
    const auto model =
        SignatureCostModel::train(ctx.suite(), allLatencies(ctx), cfg);
    EXPECT_THROW((void)model.predictMs(ctx.suite()[0], {1.0, 2.0}),
                 GcmError);
}

TEST(CostModel, RaggedLatencyMatrixThrows)
{
    const auto &ctx = gcmtest::smallContext();
    auto lat = allLatencies(ctx);
    lat[1].pop_back();
    EXPECT_THROW(
        (void)SignatureCostModel::train(ctx.suite(), lat,
                                        SignatureCostModel::Config{}),
        GcmError);
}

TEST(CostModel, MatrixNetworkCountMismatchThrows)
{
    const auto &ctx = gcmtest::smallContext();
    auto lat = allLatencies(ctx);
    lat.pop_back();
    EXPECT_THROW(
        (void)SignatureCostModel::train(ctx.suite(), lat,
                                        SignatureCostModel::Config{}),
        GcmError);
}

TEST(CostModel, AnchorNormalizationIsConfigurable)
{
    const auto &ctx = gcmtest::smallContext();
    SignatureCostModel::Config cfg;
    cfg.gbt = gcmtest::fastGbt();
    cfg.anchor_normalization = false;
    const auto raw =
        SignatureCostModel::train(ctx.suite(), allLatencies(ctx), cfg);
    cfg.anchor_normalization = true;
    const auto anchored =
        SignatureCostModel::train(ctx.suite(), allLatencies(ctx), cfg);
    std::vector<double> sig;
    for (std::size_t s : anchored.signature())
        sig.push_back(ctx.latencyMs(0, s));
    // Both predict something sane; they need not agree exactly.
    EXPECT_GT(raw.predictMs(ctx.suite()[12], sig), 0.0);
    EXPECT_GT(anchored.predictMs(ctx.suite()[12], sig), 0.0);
}

TEST(CostModel, AnchorFlagSurvivesSerialization)
{
    const auto &ctx = gcmtest::smallContext();
    SignatureCostModel::Config cfg;
    cfg.gbt = gcmtest::fastGbt();
    cfg.anchor_normalization = false;
    const auto model =
        SignatureCostModel::train(ctx.suite(), allLatencies(ctx), cfg);
    std::stringstream ss;
    model.serialize(ss);
    const auto loaded = SignatureCostModel::deserialize(ss);
    std::vector<double> sig;
    for (std::size_t s : model.signature())
        sig.push_back(ctx.latencyMs(1, s));
    EXPECT_DOUBLE_EQ(loaded.predictMs(ctx.suite()[14], sig),
                     model.predictMs(ctx.suite()[14], sig));
}

TEST(CostModel, PinnedSignatureBypassesSelection)
{
    const auto &ctx = gcmtest::smallContext();
    SignatureCostModel::Config cfg;
    cfg.selection.size = 4;
    cfg.gbt.n_estimators = 10;
    // An arbitrary signature no selection method would pick in this
    // order; train() must take it verbatim (retraining pipelines pin
    // the deployed signature this way — fleet/loop.hh).
    cfg.pinned_signature = {2, 0, 5};
    const auto model =
        SignatureCostModel::train(ctx.suite(), allLatencies(ctx), cfg);
    EXPECT_EQ(model.signature(), cfg.pinned_signature);
    ASSERT_EQ(model.signatureNames().size(), 3u);
    EXPECT_EQ(model.signatureNames()[0], ctx.networkNames()[2]);
    EXPECT_EQ(model.signatureNames()[1], ctx.networkNames()[0]);
    EXPECT_EQ(model.signatureNames()[2], ctx.networkNames()[5]);

    // Predictions work against the pinned set.
    std::vector<double> sig_lat;
    for (std::size_t s : model.signature())
        sig_lat.push_back(ctx.latencyMs(0, s));
    const double ms = model.predictMs(ctx.suite()[1], sig_lat);
    EXPECT_TRUE(std::isfinite(ms));
    EXPECT_GT(ms, 0.0);
}

TEST(CostModel, PinnedSignatureValidatesIndices)
{
    const auto &ctx = gcmtest::smallContext();
    SignatureCostModel::Config cfg;
    cfg.gbt.n_estimators = 5;
    cfg.pinned_signature = {0, ctx.suite().size()};
    EXPECT_THROW(
        SignatureCostModel::train(ctx.suite(), allLatencies(ctx), cfg),
        GcmError);
    cfg.pinned_signature = {1, 1};
    EXPECT_THROW(
        SignatureCostModel::train(ctx.suite(), allLatencies(ctx), cfg),
        GcmError);
    cfg.pinned_signature.clear();
    for (std::size_t i = 0; i < ctx.suite().size(); ++i)
        cfg.pinned_signature.push_back(i);
    EXPECT_THROW(
        SignatureCostModel::train(ctx.suite(), allLatencies(ctx), cfg),
        GcmError);
}

namespace
{

/** train() with `size` networks selected by `method`; must throw. */
void
expectSizeRejected(std::size_t size, SignatureMethod method)
{
    const auto &ctx = gcmtest::smallContext();
    SignatureCostModel::Config cfg;
    cfg.gbt.n_estimators = 5;
    cfg.method = method;
    cfg.selection.size = size;
    try {
        (void)SignatureCostModel::train(ctx.suite(), allLatencies(ctx),
                                        cfg);
        ADD_FAILURE() << "size " << size << " was accepted";
    } catch (const GcmError &e) {
        EXPECT_NE(std::string(e.what()).find("signature size"),
                  std::string::npos)
            << e.what();
    }
}

constexpr SignatureMethod kAllMethods[] = {
    SignatureMethod::RandomSampling,
    SignatureMethod::MutualInformation,
    SignatureMethod::SpearmanCorrelation,
};

} // namespace

TEST(CostModel, SignatureSizeZeroIsAnError)
{
    for (const auto method : kAllMethods)
        expectSizeRejected(0, method);
}

TEST(CostModel, MisSignatureOfTheWholeSuiteIsAnError)
{
    expectSizeRejected(gcmtest::smallContext().suite().size(),
                       SignatureMethod::MutualInformation);
}

TEST(CostModel, RsAndSccsSignatureOfTheWholeSuiteIsAnError)
{
    expectSizeRejected(gcmtest::smallContext().suite().size(),
                       SignatureMethod::RandomSampling);
    expectSizeRejected(gcmtest::smallContext().suite().size(),
                       SignatureMethod::SpearmanCorrelation);
}

TEST(CostModel, SignatureLargerThanTheSuiteIsAnError)
{
    for (const auto method : kAllMethods)
        expectSizeRejected(gcmtest::smallContext().suite().size() + 1,
                           method);
}

TEST(CostModel, PinnedSignatureIgnoresTheSelectionSize)
{
    const auto &ctx = gcmtest::smallContext();
    SignatureCostModel::Config cfg;
    cfg.gbt.n_estimators = 5;
    cfg.selection.size = 0;
    cfg.pinned_signature = {3, 1};
    const auto model =
        SignatureCostModel::train(ctx.suite(), allLatencies(ctx), cfg);
    EXPECT_EQ(model.signature(), cfg.pinned_signature);
}

TEST(CostModel, BlockedFitIsByteIdenticalToDenseFit)
{
    // The paper suite (118 networks) on 40 devices: 4,320 training
    // rows, past the 4,096-row quantile sample. train() fits on the
    // two-block (network, device) dataset; the reference fits the same
    // rows materialized densely, in the same order.
    const auto ctx = ExperimentContext::build();
    std::vector<std::size_t> devs(40);
    std::iota(devs.begin(), devs.end(), std::size_t{0});
    const auto lat = ctx.latencyMatrix(devs);
    SignatureCostModel::Config cfg;
    cfg.gbt.n_estimators = 20;
    cfg.pinned_signature =
        selectSignature(lat, cfg.method, cfg.selection);

    setThreads(1);
    const auto shape = SignatureCostModel::train(ctx.suite(), lat, cfg);
    const std::size_t net_f = shape.networkFeatureWidth();
    ml::Dataset dense(shape.featureWidth());
    std::vector<float> row(shape.featureWidth());
    for (std::size_t d = 0; d < devs.size(); ++d) {
        std::vector<double> sig_lat;
        for (std::size_t s : shape.signature())
            sig_lat.push_back(lat[s][d]);
        const double anchor = shape.signatureTail(sig_lat, row.data() + net_f);
        for (std::size_t n = 0; n < ctx.numNetworks(); ++n) {
            if (std::find(shape.signature().begin(), shape.signature().end(),
                          n)
                != shape.signature().end()) {
                continue;
            }
            const auto enc = shape.encodeNetwork(ctx.suite()[n]);
            std::copy(enc.begin(), enc.end(), row.begin());
            dense.addRow(row, lat[n][d] / anchor);
        }
    }
    ml::GradientBoostedTrees reference(cfg.gbt);
    reference.train(dense);
    std::ostringstream want;
    reference.serialize(want);

    for (const std::size_t threads : {1UL, 2UL, 8UL}) {
        setThreads(threads);
        const auto model = SignatureCostModel::train(ctx.suite(), lat, cfg);
        std::ostringstream got;
        model.serialize(got);
        const std::string text = got.str();
        const auto booster = text.find("gcm-gbt v1");
        ASSERT_NE(booster, std::string::npos);
        EXPECT_EQ(text.substr(booster), want.str())
            << "at " << threads << " threads";
    }
    setThreads(0);
}
