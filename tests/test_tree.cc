/**
 * @file
 * Unit tests for the histogram regression-tree trainer (the weak
 * learner shared by GBT and RandomForest).
 */

#include <gtest/gtest.h>

#include <numeric>

#include "ml/tree.hh"

using namespace gcm::ml;
using gcm::Rng;

namespace
{

/** Dataset with one feature and a step target at x = 0.5. */
Dataset
stepData()
{
    Dataset ds(1);
    for (int i = 0; i < 100; ++i) {
        const float x = static_cast<float>(i) / 100.0f;
        ds.addRow({x}, x > 0.5f ? 10.0 : -10.0);
    }
    return ds;
}

std::vector<std::uint32_t>
allRows(std::size_t n)
{
    std::vector<std::uint32_t> rows(n);
    std::iota(rows.begin(), rows.end(), std::uint32_t{0});
    return rows;
}

/** Gradients for fitting raw targets from a zero prediction. */
std::vector<float>
negLabels(const Dataset &ds)
{
    std::vector<float> g(ds.numRows());
    for (std::size_t i = 0; i < ds.numRows(); ++i)
        g[i] = static_cast<float>(-ds.label(i));
    return g;
}

/** Trees are equal when every node field is. */
void
expectSameTree(const RegressionTree &a, const RegressionTree &b)
{
    ASSERT_EQ(a.numNodes(), b.numNodes());
    for (std::size_t k = 0; k < a.numNodes(); ++k) {
        const TreeNode &x = a.nodes()[k];
        const TreeNode &y = b.nodes()[k];
        EXPECT_EQ(x.feature, y.feature) << "node " << k;
        EXPECT_EQ(x.threshold, y.threshold) << "node " << k;
        EXPECT_EQ(x.binThreshold, y.binThreshold) << "node " << k;
        EXPECT_EQ(x.left, y.left) << "node " << k;
        EXPECT_EQ(x.right, y.right) << "node " << k;
        EXPECT_EQ(x.value, y.value) << "node " << k;
    }
}

} // namespace

TEST(TreeTrainer, BlockedTreeMatchesDenseOnExactGradients)
{
    // Integer-valued gradients sum exactly in any order, so collapsing
    // rows per key cannot change a histogram bin: the blocked and the
    // dense tree must agree node for node.
    Rng rng(13);
    ColumnBlock nets, devs;
    nets.width = 4;
    for (int k = 0; k < 13 * 4; ++k)
        nets.table.push_back(static_cast<float>(rng.uniform(-1, 1)));
    devs.width = 2;
    for (int k = 0; k < 6 * 2; ++k)
        devs.table.push_back(static_cast<float>(rng.uniformInt(0, 3)));
    const std::size_t n = 400;
    std::vector<float> grad(n);
    for (std::size_t i = 0; i < n; ++i) {
        nets.keys.push_back(static_cast<std::uint32_t>(rng.uniformInt(0, 12)));
        devs.keys.push_back(static_cast<std::uint32_t>(rng.uniformInt(0, 5)));
        grad[i] = static_cast<float>(rng.uniformInt(-20, 20));
    }
    const BlockedDataset blocked({nets, devs}, std::vector<double>(n, 0.0));
    const BinnedMatrix b(blocked, 16);
    const BinnedMatrix d(blocked.toDense(), 16);

    std::vector<std::uint32_t> subset, bootstrap;
    for (std::uint32_t i = 0; i < n; i += 3)
        subset.push_back(i);
    const auto last = static_cast<std::int64_t>(n) - 1;
    for (std::size_t i = 0; i < n; ++i) {
        bootstrap.push_back(
            static_cast<std::uint32_t>(rng.uniformInt(0, last)));
    }
    TreeTrainConfig cfg;
    cfg.max_depth = 4;
    for (const auto &rows : {allRows(n), subset, bootstrap}) {
        std::vector<double> gain_b, gain_d;
        const auto tb = trainTree(b, rows, grad, cfg, nullptr, &gain_b);
        const auto td = trainTree(d, rows, grad, cfg, nullptr, &gain_d);
        EXPECT_GT(tb.numLeaves(), 2u);
        expectSameTree(tb, td);
        EXPECT_EQ(gain_b, gain_d);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(tb.predictBinnedRow(b, i), td.predictBinnedRow(d, i));
    }
}

TEST(TreeTrainer, FindsTheStepSplit)
{
    const auto ds = stepData();
    BinnedMatrix binned(ds, 64);
    TreeTrainConfig cfg;
    cfg.max_depth = 1;
    cfg.lambda = 0.0;
    const auto tree =
        trainTree(binned, allRows(ds.numRows()), negLabels(ds), cfg,
                  nullptr);
    ASSERT_EQ(tree.numNodes(), 3u);
    ASSERT_EQ(tree.numLeaves(), 2u);
    // Split lands near 0.5; leaves predict the two plateau values.
    const float lo = 0.2f, hi = 0.8f;
    EXPECT_NEAR(tree.predictRow(&lo), -10.0, 1e-6);
    EXPECT_NEAR(tree.predictRow(&hi), 10.0, 1e-6);
    EXPECT_GE(tree.nodes()[0].threshold, 0.4f);
    EXPECT_LE(tree.nodes()[0].threshold, 0.6f);
}

TEST(TreeTrainer, LeafValueIsRegularizedMean)
{
    // One constant feature -> no split possible -> root leaf.
    Dataset ds(1);
    for (int i = 0; i < 4; ++i)
        ds.addRow({1.0f}, 8.0);
    BinnedMatrix binned(ds, 8);
    TreeTrainConfig cfg;
    cfg.lambda = 4.0; // -G/(N + lambda) = 32/(4+4) = 4
    const auto tree =
        trainTree(binned, allRows(4), negLabels(ds), cfg, nullptr);
    EXPECT_EQ(tree.numLeaves(), 1u);
    const float x = 1.0f;
    EXPECT_NEAR(tree.predictRow(&x), 4.0, 1e-6);
}

TEST(TreeTrainer, MinChildWeightBlocksTinySplits)
{
    const auto ds = stepData();
    BinnedMatrix binned(ds, 64);
    TreeTrainConfig cfg;
    cfg.max_depth = 1;
    cfg.min_child_weight = 60.0; // no 60/40 split exists for the step
    const auto tree =
        trainTree(binned, allRows(ds.numRows()), negLabels(ds), cfg,
                  nullptr);
    EXPECT_EQ(tree.numLeaves(), 1u);
}

TEST(TreeTrainer, GammaPrunesLowGainSplits)
{
    const auto ds = stepData();
    BinnedMatrix binned(ds, 64);
    TreeTrainConfig cfg;
    cfg.max_depth = 3;
    cfg.gamma = 1e9;
    const auto tree =
        trainTree(binned, allRows(ds.numRows()), negLabels(ds), cfg,
                  nullptr);
    EXPECT_EQ(tree.numLeaves(), 1u);
}

TEST(TreeTrainer, DepthBoundRespected)
{
    Rng rng(3);
    Dataset ds(2);
    for (int i = 0; i < 500; ++i) {
        const float a = static_cast<float>(rng.uniform(-1, 1));
        const float b = static_cast<float>(rng.uniform(-1, 1));
        ds.addRow({a, b}, a * b);
    }
    BinnedMatrix binned(ds, 32);
    TreeTrainConfig cfg;
    cfg.max_depth = 4;
    const auto tree = trainTree(binned, allRows(ds.numRows()),
                                negLabels(ds), cfg, nullptr);
    EXPECT_LE(tree.numLeaves(), 16u); // 2^4
    EXPECT_GT(tree.numLeaves(), 2u);
}

TEST(TreeTrainer, GainAccountingMatchesInformativeFeature)
{
    Rng rng(5);
    Dataset ds(3);
    for (int i = 0; i < 400; ++i) {
        const float x = static_cast<float>(rng.uniform(-1, 1));
        ds.addRow({static_cast<float>(rng.normal()), x,
                   static_cast<float>(rng.normal())},
                  x > 0 ? 5.0 : -5.0);
    }
    BinnedMatrix binned(ds, 32);
    TreeTrainConfig cfg;
    cfg.max_depth = 2;
    std::vector<double> gain;
    (void)trainTree(binned, allRows(ds.numRows()), negLabels(ds), cfg,
                    nullptr, &gain);
    ASSERT_EQ(gain.size(), 3u);
    EXPECT_GT(gain[1], gain[0]);
    EXPECT_GT(gain[1], gain[2]);
}

TEST(TreeTrainer, BinnedAndRawPredictionsAgreeOnTrainingRows)
{
    Rng rng(7);
    Dataset ds(4);
    for (int i = 0; i < 300; ++i) {
        std::vector<float> row;
        for (int f = 0; f < 4; ++f)
            row.push_back(static_cast<float>(rng.uniform(-2, 2)));
        ds.addRow(row, row[0] + 2.0 * row[2]);
    }
    BinnedMatrix binned(ds, 32);
    TreeTrainConfig cfg;
    cfg.max_depth = 3;
    const auto tree = trainTree(binned, allRows(ds.numRows()),
                                negLabels(ds), cfg, nullptr);
    for (std::size_t i = 0; i < ds.numRows(); ++i) {
        EXPECT_DOUBLE_EQ(tree.predictRow(ds.row(i)),
                         tree.predictBinnedRow(binned, i));
    }
}

TEST(TreeTrainer, SubsetRowsOnlyUseThoseGradients)
{
    // Train on the left half of the step only: the tree never sees a
    // positive target, so it predicts the negative plateau everywhere.
    const auto ds = stepData();
    BinnedMatrix binned(ds, 64);
    std::vector<std::uint32_t> rows;
    for (std::uint32_t i = 0; i < 50; ++i)
        rows.push_back(i);
    TreeTrainConfig cfg;
    cfg.lambda = 0.0;
    const auto tree = trainTree(binned, rows, negLabels(ds), cfg,
                                nullptr);
    const float hi = 0.9f;
    EXPECT_NEAR(tree.predictRow(&hi), -10.0, 1e-6);
}
