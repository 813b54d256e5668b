/**
 * @file
 * Unit tests for the gradient-boosted trees learner.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ml/gbt.hh"
#include "ml/metrics.hh"
#include "util/rng.hh"

using namespace gcm::ml;
using gcm::Rng;

namespace
{

/** Dataset from a scalar function with optional noise. */
Dataset
functionDataset(std::size_t n, double (*f)(double), double noise,
                std::uint64_t seed)
{
    Rng rng(seed);
    Dataset ds(1);
    for (std::size_t i = 0; i < n; ++i) {
        const double x = rng.uniform(-3.0, 3.0);
        ds.addRow({static_cast<float>(x)},
                  f(x) + noise * rng.normal());
    }
    return ds;
}

double square(double x) { return x * x; }
double step(double x) { return x > 0.5 ? 5.0 : -5.0; }

} // namespace

TEST(Gbt, FitsStepFunctionExactly)
{
    const auto train = functionDataset(500, step, 0.0, 1);
    GradientBoostedTrees model;
    model.train(train);
    const auto test = functionDataset(100, step, 0.0, 2);
    EXPECT_GT(r2Score(test.labels(), model.predict(test)), 0.99);
}

TEST(Gbt, FitsSmoothFunction)
{
    const auto train = functionDataset(2000, square, 0.05, 3);
    GradientBoostedTrees model;
    model.train(train);
    const auto test = functionDataset(300, square, 0.0, 4);
    EXPECT_GT(r2Score(test.labels(), model.predict(test)), 0.97);
}

TEST(Gbt, BaseScoreIsLabelMean)
{
    Dataset ds(1);
    ds.addRow({0.0f}, 2.0);
    ds.addRow({1.0f}, 4.0);
    GradientBoostedTrees model;
    model.train(ds);
    EXPECT_DOUBLE_EQ(model.baseScore(), 3.0);
}

TEST(Gbt, TrainsRequestedNumberOfTrees)
{
    GbtParams p;
    p.n_estimators = 17;
    const auto train = functionDataset(100, square, 0.1, 5);
    GradientBoostedTrees model(p);
    model.train(train);
    EXPECT_EQ(model.numTrees(), 17u);
}

TEST(Gbt, DeterministicForSeed)
{
    const auto train = functionDataset(300, square, 0.1, 6);
    const auto test = functionDataset(50, square, 0.0, 7);
    GbtParams p;
    p.subsample = 0.8;
    GradientBoostedTrees a(p), b(p);
    a.train(train);
    b.train(train);
    EXPECT_EQ(a.predict(test), b.predict(test));
}

TEST(Gbt, MultiFeatureSelectsInformativeFeature)
{
    Rng rng(8);
    Dataset ds(3);
    for (int i = 0; i < 800; ++i) {
        const double x = rng.uniform(-1, 1);
        // Features 0 and 2 are noise; feature 1 carries the signal.
        ds.addRow({static_cast<float>(rng.normal()),
                   static_cast<float>(x),
                   static_cast<float>(rng.normal())},
                  4.0 * x);
    }
    GradientBoostedTrees model;
    model.train(ds);
    const auto &imp = model.featureImportance();
    EXPECT_GT(imp[1], 10.0 * std::max(imp[0], imp[2]));
}

TEST(Gbt, PredictBeforeTrainAborts)
{
    GradientBoostedTrees model;
    float x = 0.0f;
    EXPECT_DEATH((void)model.flat().predictRow(&x),
                 "predict before train");
}

TEST(Gbt, ConstantTargetPredictsConstant)
{
    Dataset ds(1);
    for (int i = 0; i < 20; ++i)
        ds.addRow({static_cast<float>(i)}, 7.5);
    GradientBoostedTrees model;
    model.train(ds);
    const float x = 3.0f;
    EXPECT_NEAR(model.flat().predictRow(&x), 7.5, 1e-9);
}

TEST(Gbt, GammaPrunesWeakSplits)
{
    // With a huge minimum gain requirement nothing should split, so
    // predictions collapse to the base score.
    const auto train = functionDataset(200, square, 0.0, 11);
    GbtParams p;
    p.gamma = 1e12;
    GradientBoostedTrees model(p);
    model.train(train);
    const float x = 2.0f;
    EXPECT_NEAR(model.flat().predictRow(&x), model.baseScore(), 1e-9);
}

TEST(Gbt, SubsampleStillLearns)
{
    GbtParams p;
    p.subsample = 0.5;
    const auto train = functionDataset(2000, square, 0.05, 12);
    GradientBoostedTrees model(p);
    model.train(train);
    const auto test = functionDataset(200, square, 0.0, 13);
    EXPECT_GT(r2Score(test.labels(), model.predict(test)), 0.9);
}

/** Learning rate sweep: the paper's 0.1 setting must be stable. */
class GbtLrTest : public ::testing::TestWithParam<double>
{};

TEST_P(GbtLrTest, ConvergesAcrossLearningRates)
{
    GbtParams p;
    p.learning_rate = GetParam();
    const auto train = functionDataset(1000, step, 0.0, 14);
    GradientBoostedTrees model(p);
    model.train(train);
    const auto test = functionDataset(100, step, 0.0, 15);
    EXPECT_GT(r2Score(test.labels(), model.predict(test)), 0.95);
}

INSTANTIATE_TEST_SUITE_P(LearningRates, GbtLrTest,
                         ::testing::Values(0.05, 0.1, 0.3, 0.5));

/** Depth sweep: deeper trees should not hurt a simple target. */
class GbtDepthTest : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(GbtDepthTest, FitsAcrossDepths)
{
    GbtParams p;
    p.max_depth = GetParam();
    const auto train = functionDataset(1000, square, 0.05, 16);
    GradientBoostedTrees model(p);
    model.train(train);
    const auto test = functionDataset(200, square, 0.0, 17);
    EXPECT_GT(r2Score(test.labels(), model.predict(test)), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Depths, GbtDepthTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));
