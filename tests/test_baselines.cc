/**
 * @file
 * Unit tests for the baseline learners (random forest, kNN, ridge,
 * MLP) the paper compared against XGBoost.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ml/knn.hh"
#include "ml/linear.hh"
#include "ml/metrics.hh"
#include "ml/mlp.hh"
#include "ml/random_forest.hh"
#include "util/rng.hh"

using namespace gcm::ml;
using gcm::Rng;

namespace
{

Dataset
linearData(std::size_t n, double noise, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset ds(2);
    for (std::size_t i = 0; i < n; ++i) {
        const double a = rng.uniform(-2, 2);
        const double b = rng.uniform(-2, 2);
        ds.addRow({static_cast<float>(a), static_cast<float>(b)},
                  3.0 * a - 2.0 * b + 1.0 + noise * rng.normal());
    }
    return ds;
}

Dataset
nonlinearData(std::size_t n, double noise, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset ds(2);
    for (std::size_t i = 0; i < n; ++i) {
        const double a = rng.uniform(-2, 2);
        const double b = rng.uniform(-2, 2);
        ds.addRow({static_cast<float>(a), static_cast<float>(b)},
                  a * a + std::sin(2 * b) + noise * rng.normal());
    }
    return ds;
}

} // namespace

TEST(RandomForest, FitsNonlinearTarget)
{
    RandomForestParams p;
    p.n_trees = 60;
    RandomForest model(p);
    model.train(nonlinearData(2000, 0.05, 1));
    const auto test = nonlinearData(300, 0.0, 2);
    EXPECT_GT(r2Score(test.labels(), model.predict(test)), 0.9);
}

TEST(RandomForest, DeterministicForSeed)
{
    const auto train = nonlinearData(300, 0.1, 3);
    const auto test = nonlinearData(50, 0.0, 4);
    RandomForest a, b;
    a.train(train);
    b.train(train);
    EXPECT_EQ(a.predict(test), b.predict(test));
}

TEST(RandomForest, NumTrees)
{
    RandomForestParams p;
    p.n_trees = 7;
    RandomForest model(p);
    model.train(linearData(100, 0.1, 5));
    EXPECT_EQ(model.numTrees(), 7u);
}

TEST(Knn, ExactNeighborLookup)
{
    Dataset ds(1);
    ds.addRow({0.0f}, 0.0);
    ds.addRow({1.0f}, 10.0);
    ds.addRow({2.0f}, 20.0);
    KnnParams p;
    p.k = 1;
    KNearestNeighbors model(p);
    model.train(ds);
    const float q = 1.1f;
    EXPECT_DOUBLE_EQ(model.predictRow(&q), 10.0);
}

TEST(Knn, AveragesKNeighbors)
{
    Dataset ds(1);
    ds.addRow({0.0f}, 0.0);
    ds.addRow({1.0f}, 10.0);
    ds.addRow({100.0f}, 1000.0);
    KnnParams p;
    p.k = 2;
    KNearestNeighbors model(p);
    model.train(ds);
    const float q = 0.4f;
    EXPECT_DOUBLE_EQ(model.predictRow(&q), 5.0);
}

TEST(Knn, FitsSmoothTarget)
{
    KnnParams p;
    p.k = 5;
    KNearestNeighbors model(p);
    model.train(nonlinearData(3000, 0.05, 6));
    const auto test = nonlinearData(200, 0.0, 7);
    EXPECT_GT(r2Score(test.labels(), model.predict(test)), 0.9);
}

TEST(Knn, KLargerThanDatasetClamps)
{
    Dataset ds(1);
    ds.addRow({0.0f}, 2.0);
    ds.addRow({1.0f}, 4.0);
    KnnParams p;
    p.k = 10;
    KNearestNeighbors model(p);
    model.train(ds);
    const float q = 0.0f;
    EXPECT_DOUBLE_EQ(model.predictRow(&q), 3.0);
}

TEST(Ridge, RecoversLinearCoefficients)
{
    RidgeParams p;
    p.alpha = 1e-6;
    RidgeRegression model(p);
    model.train(linearData(1000, 0.0, 8));
    const auto test = linearData(100, 0.0, 9);
    EXPECT_GT(r2Score(test.labels(), model.predict(test)), 0.9999);
}

TEST(Ridge, HandlesConstantFeature)
{
    Dataset ds(2);
    Rng rng(10);
    for (int i = 0; i < 100; ++i) {
        const double x = rng.uniform(-1, 1);
        ds.addRow({static_cast<float>(x), 5.0f}, 2.0 * x);
    }
    RidgeRegression model;
    model.train(ds);
    const auto preds = model.predict(ds);
    EXPECT_GT(r2Score(ds.labels(), preds), 0.99);
}

TEST(Ridge, StrongRegularizationShrinksToMean)
{
    RidgeParams p;
    p.alpha = 1e12;
    RidgeRegression model(p);
    const auto train = linearData(200, 0.0, 11);
    model.train(train);
    // With huge alpha all weights vanish; prediction = target mean.
    const float q[2] = {1.0f, 1.0f};
    double mean = 0.0;
    for (double y : train.labels())
        mean += y;
    mean /= static_cast<double>(train.numRows());
    EXPECT_NEAR(model.predictRow(q), mean, 0.05);
}

TEST(Mlp, FitsLinearTarget)
{
    MlpParams p;
    p.epochs = 40;
    Mlp model(p);
    model.train(linearData(1000, 0.02, 12));
    const auto test = linearData(200, 0.0, 13);
    EXPECT_GT(r2Score(test.labels(), model.predict(test)), 0.95);
}

TEST(Mlp, LossDecreasesOverEpochs)
{
    MlpParams p;
    p.epochs = 15;
    Mlp model(p);
    model.train(nonlinearData(800, 0.05, 14));
    const auto &hist = model.lossHistory();
    ASSERT_EQ(hist.size(), 15u);
    EXPECT_LT(hist.back(), hist.front());
}

TEST(Mlp, DeterministicForSeed)
{
    const auto train = linearData(200, 0.1, 15);
    const auto test = linearData(20, 0.0, 16);
    Mlp a, b;
    a.train(train);
    b.train(train);
    EXPECT_EQ(a.predict(test), b.predict(test));
}
