/**
 * @file
 * Unit tests for model serialization: regression trees, the GBT
 * booster and the end-to-end SignatureCostModel round-trip exactly
 * through their text formats, and corrupt counts and malformed trees
 * are rejected.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/cost_model.hh"
#include "ml/gbt.hh"
#include "serve/registry.hh"
#include "testing_support.hh"
#include "util/error.hh"
#include "util/rng.hh"

using namespace gcm;

namespace
{

ml::Dataset
waveDataset(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    ml::Dataset ds(3);
    for (std::size_t i = 0; i < n; ++i) {
        const float a = static_cast<float>(rng.uniform(-2, 2));
        const float b = static_cast<float>(rng.uniform(-2, 2));
        const float c = static_cast<float>(rng.uniform(-2, 2));
        ds.addRow({a, b, c}, std::sin(a) + b * b - 0.5 * c);
    }
    return ds;
}

/** `text` with the first "<field> N" line's count replaced. */
std::string
withCount(const std::string &text, const std::string &field,
          const std::string &count)
{
    const std::string key = "\n" + field + " ";
    const auto at = text.find(key);
    EXPECT_NE(at, std::string::npos) << field;
    const auto begin = at + key.size();
    const auto end = text.find('\n', begin);
    return text.substr(0, begin) + count + text.substr(end);
}

/** `text` with its first tree's root node line replaced by `node`. */
std::string
withRootNode(const std::string &text, const std::string &node)
{
    const auto tree = text.find("\ntree ");
    EXPECT_NE(tree, std::string::npos);
    // The edits below assume a root with children to rewire.
    EXPECT_GE(std::stoul(text.substr(tree + 6)), 3u);
    const auto at = text.find("\nnode ", tree);
    const auto end = text.find('\n', at + 1);
    return text.substr(0, at + 1) + node + text.substr(end);
}

/** Loading `text` as a served model artifact raises GcmError. */
void
expectRejected(const std::string &text)
{
    std::istringstream is(text);
    EXPECT_THROW((void)serve::ModelSnapshot::fromStream(is), GcmError);
}

std::string
costModelText()
{
    const auto &ctx = gcmtest::smallContext();
    std::vector<std::size_t> devices(ctx.fleet().size());
    for (std::size_t i = 0; i < devices.size(); ++i)
        devices[i] = i;
    core::SignatureCostModel::Config cfg;
    cfg.gbt.n_estimators = 3;
    cfg.pinned_signature = {0, 1, 2};
    std::ostringstream os;
    core::SignatureCostModel::train(ctx.suite(), ctx.latencyMatrix(devices),
                                    cfg)
        .serialize(os);
    return os.str();
}

} // namespace

TEST(Serialization, HugeTreeNodeCountIsRejected)
{
    // Sized from the count, this once aborted with std::bad_alloc.
    expectRejected(withCount(costModelText(), "tree", "4000000000"));
}

namespace
{

std::string
gbtText()
{
    ml::GradientBoostedTrees gbt;
    gbt.train(waveDataset(100, 5));
    std::ostringstream os;
    gbt.serialize(os);
    return os.str();
}

/** The bare booster parser rejects `edit` of its own artifact. */
template <typename Edit>
void
expectBoosterRejects(Edit edit)
{
    std::istringstream g(edit(gbtText()));
    EXPECT_THROW((void)ml::GradientBoostedTrees::deserialize(g),
                 GcmError);
}

} // namespace

TEST(Serialization, HugeTreeCountIsRejected)
{
    expectBoosterRejects([](const std::string &text) {
        return withCount(text, "trees", "4000000000");
    });
}

TEST(Serialization, MalformedTreesAreRejected)
{
    // Each edit keeps every child index in range, so only a check
    // that the nodes form one tree can catch it. A cycle once sent
    // FlatEnsemble::compile's BFS round until std::bad_alloc.
    const std::string self_loop = "node 0 0 0 0 1 0";   // root -> root
    const std::string shared = "node 0 0 0 1 1 0";      // 1 reached twice
    const std::string orphans = "node -1 0 0 -1 -1 0";  // leaf root
    const std::string model = costModelText();
    for (const std::string &root : {self_loop, shared, orphans}) {
        SCOPED_TRACE(root);
        expectRejected(withRootNode(model, root));
        expectBoosterRejects([&](const std::string &text) {
            return withRootNode(text, root);
        });
    }
}

TEST(Serialization, HugeSignatureCountIsRejected)
{
    expectRejected(withCount(costModelText(), "signature", "4000000000"));
}

TEST(Serialization, HugeFeatureAndLayerCountsAreRejected)
{
    const std::string text = costModelText();
    expectRejected(withCount(text, "num_features", "4000000000"));
    expectRejected(withCount(text, "max_layers", "4000000000"));
    // A booster wider than the encoder layout would read past the
    // query row.
    expectRejected(withCount(text, "num_features", "100000"));
}

TEST(Serialization, GbtRoundTripIsExact)
{
    const auto train = waveDataset(600, 1);
    const auto test = waveDataset(100, 2);
    ml::GradientBoostedTrees model;
    model.train(train);

    std::stringstream ss;
    model.serialize(ss);
    const auto loaded = ml::GradientBoostedTrees::deserialize(ss);

    EXPECT_EQ(loaded.numTrees(), model.numTrees());
    EXPECT_DOUBLE_EQ(loaded.baseScore(), model.baseScore());
    EXPECT_EQ(loaded.predict(test), model.predict(test));
}

TEST(Serialization, GbtRoundTripPreservesParams)
{
    ml::GbtParams p;
    p.n_estimators = 13;
    p.max_depth = 4;
    p.learning_rate = 0.25;
    ml::GradientBoostedTrees model(p);
    model.train(waveDataset(200, 3));
    std::stringstream ss;
    model.serialize(ss);
    const auto loaded = ml::GradientBoostedTrees::deserialize(ss);
    EXPECT_EQ(loaded.params().n_estimators, 13u);
    EXPECT_EQ(loaded.params().max_depth, 4u);
    EXPECT_DOUBLE_EQ(loaded.params().learning_rate, 0.25);
}

TEST(Serialization, GbtRejectsGarbage)
{
    std::stringstream ss("definitely not a model");
    EXPECT_THROW((void)ml::GradientBoostedTrees::deserialize(ss),
                 GcmError);
}

TEST(Serialization, GbtRejectsTruncatedStream)
{
    ml::GradientBoostedTrees model;
    model.train(waveDataset(100, 4));
    std::stringstream ss;
    model.serialize(ss);
    std::string text = ss.str();
    text.resize(text.size() / 2);
    std::stringstream cut(text);
    EXPECT_THROW((void)ml::GradientBoostedTrees::deserialize(cut),
                 GcmError);
}

TEST(Serialization, GbtUntrainedModelAborts)
{
    ml::GradientBoostedTrees model;
    std::stringstream ss;
    EXPECT_DEATH(model.serialize(ss), "not trained");
}

TEST(Serialization, CostModelRoundTrip)
{
    const auto &ctx = gcmtest::smallContext();
    std::vector<std::size_t> devices(ctx.fleet().size());
    for (std::size_t i = 0; i < devices.size(); ++i)
        devices[i] = i;
    core::SignatureCostModel::Config cfg;
    cfg.gbt = gcmtest::fastGbt();
    const auto model = core::SignatureCostModel::train(
        ctx.suite(), ctx.latencyMatrix(devices), cfg);

    std::stringstream ss;
    model.serialize(ss);
    const auto loaded = core::SignatureCostModel::deserialize(ss);

    EXPECT_EQ(loaded.signature(), model.signature());
    EXPECT_EQ(loaded.signatureNames(), model.signatureNames());
    EXPECT_EQ(loaded.encoder().maxLayers(),
              model.encoder().maxLayers());

    std::vector<double> sig;
    for (std::size_t s : model.signature())
        sig.push_back(ctx.latencyMs(0, s));
    for (std::size_t n = 0; n < ctx.numNetworks(); n += 5) {
        EXPECT_DOUBLE_EQ(loaded.predictMs(ctx.suite()[n], sig),
                         model.predictMs(ctx.suite()[n], sig));
    }
}

TEST(Serialization, CostModelRejectsBadHeader)
{
    std::stringstream ss("gcm-cost-model v9\n");
    EXPECT_THROW((void)core::SignatureCostModel::deserialize(ss),
                 GcmError);
}
