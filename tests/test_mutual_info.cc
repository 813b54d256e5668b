/**
 * @file
 * Unit tests for mutual-information estimation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/mutual_info.hh"
#include "util/rng.hh"

using namespace gcm::stats;
using gcm::Rng;

TEST(QuantileBins, EqualFrequency)
{
    std::vector<double> v;
    for (int i = 0; i < 100; ++i)
        v.push_back(i);
    const auto bins = quantileBins(v, 4);
    std::vector<int> counts(4, 0);
    for (std::size_t b : bins)
        ++counts[b];
    for (int c : counts)
        EXPECT_NEAR(c, 25, 2);
}

TEST(QuantileBins, ConstantInputAllSameBin)
{
    const auto bins = quantileBins(std::vector<double>(10, 3.0), 4);
    for (std::size_t b : bins)
        EXPECT_EQ(b, bins[0]);
}

TEST(DiscreteMi, IdenticalVariablesEqualsEntropy)
{
    // Uniform over 4 symbols: I(X;X) = H(X) = log 4.
    std::vector<std::size_t> x;
    for (int i = 0; i < 400; ++i)
        x.push_back(static_cast<std::size_t>(i % 4));
    EXPECT_NEAR(discreteMutualInformation(x, x, 4, 4), std::log(4.0),
                1e-9);
}

TEST(DiscreteMi, IndependentNearZero)
{
    Rng rng(5);
    std::vector<std::size_t> x, y;
    for (int i = 0; i < 20000; ++i) {
        x.push_back(static_cast<std::size_t>(rng.uniformInt(0, 3)));
        y.push_back(static_cast<std::size_t>(rng.uniformInt(0, 3)));
    }
    EXPECT_LT(discreteMutualInformation(x, y, 4, 4), 0.01);
}

TEST(DiscreteMi, Symmetric)
{
    Rng rng(7);
    std::vector<std::size_t> x, y;
    for (int i = 0; i < 500; ++i) {
        const auto v = static_cast<std::size_t>(rng.uniformInt(0, 3));
        x.push_back(v);
        y.push_back(rng.bernoulli(0.7) ? v : 3 - v);
    }
    EXPECT_NEAR(discreteMutualInformation(x, y, 4, 4),
                discreteMutualInformation(y, x, 4, 4), 1e-12);
}

TEST(HistogramMi, CorrelatedBeatsIndependent)
{
    Rng rng(9);
    std::vector<double> x, y_dep, y_ind;
    for (int i = 0; i < 3000; ++i) {
        const double v = rng.normal();
        x.push_back(v);
        y_dep.push_back(v + 0.1 * rng.normal());
        y_ind.push_back(rng.normal());
    }
    EXPECT_GT(histogramMutualInformation(x, y_dep),
              histogramMutualInformation(x, y_ind) + 0.5);
}

TEST(GaussianMi, MatchesAnalyticForBivariateGaussian)
{
    // I(X;Y) = -0.5 log(1 - rho^2) for a bivariate Gaussian.
    Rng rng(11);
    const double rho = 0.8;
    std::vector<double> x, y;
    for (int i = 0; i < 50000; ++i) {
        const double a = rng.normal(), b = rng.normal();
        x.push_back(a);
        y.push_back(rho * a + std::sqrt(1 - rho * rho) * b);
    }
    const GaussianMiEstimator est({x, y}, 1e-6);
    const double analytic = -0.5 * std::log(1 - rho * rho);
    EXPECT_NEAR(est.setMi({0}, {1}), analytic, 0.05);
}

TEST(GaussianMi, IndependentNearZero)
{
    Rng rng(13);
    std::vector<double> x, y;
    for (int i = 0; i < 20000; ++i) {
        x.push_back(rng.normal());
        y.push_back(rng.normal());
    }
    const GaussianMiEstimator est({x, y}, 1e-6);
    EXPECT_LT(est.setMi({0}, {1}), 0.01);
}

TEST(GaussianMi, MoreInformativeSetHasHigherMi)
{
    // z is explained jointly by x and y; {x, y} should carry more
    // information about z than {x} alone.
    Rng rng(17);
    std::vector<double> x, y, z;
    for (int i = 0; i < 20000; ++i) {
        const double a = rng.normal(), b = rng.normal();
        x.push_back(a);
        y.push_back(b);
        z.push_back(a + b + 0.3 * rng.normal());
    }
    const GaussianMiEstimator est({x, y, z}, 1e-6);
    EXPECT_GT(est.setMi({0, 1}, {2}), est.setMi({0}, {2}) + 0.1);
}

TEST(GaussianMi, NonNegative)
{
    Rng rng(19);
    std::vector<std::vector<double>> vars(5);
    for (auto &v : vars) {
        for (int i = 0; i < 200; ++i)
            v.push_back(rng.normal());
    }
    const GaussianMiEstimator est(vars);
    EXPECT_GE(est.setMi({0, 1}, {2, 3, 4}), 0.0);
}

TEST(GaussianMiSelection, GainEqualsSetMiAtEveryStep)
{
    // 30 variables driven by 4 latent factors plus noise, 40 samples.
    Rng rng(23);
    const std::size_t n = 30, samples = 40;
    std::vector<std::vector<double>> load(n, std::vector<double>(4));
    for (auto &row : load) {
        for (auto &w : row)
            w = rng.normal();
    }
    std::vector<std::vector<double>> vars(n);
    for (std::size_t k = 0; k < samples; ++k) {
        double f[4];
        for (double &x : f)
            x = rng.normal();
        for (std::size_t i = 0; i < n; ++i) {
            double v = 0.5 * rng.normal();
            for (std::size_t j = 0; j < 4; ++j)
                v += load[i][j] * f[j];
            vars[i].push_back(v);
        }
    }
    const GaussianMiEstimator est(vars);
    GaussianMiSelection state(est);
    std::vector<std::size_t> s;
    while (state.numRemaining() >= 2) {
        std::size_t best = n;
        double best_gain = -1.0;
        for (std::size_t c = 0; c < n; ++c) {
            if (state.isSelected(c))
                continue;
            std::vector<std::size_t> sc = s, rc;
            sc.push_back(c);
            for (std::size_t i = 0; i < n; ++i) {
                if (!state.isSelected(i) && i != c)
                    rc.push_back(i);
            }
            const double expected = est.setMi(sc, rc);
            const double gain = state.gain(c);
            EXPECT_NEAR(gain, expected, 1e-9 * std::abs(expected))
                << "step " << s.size() << ", candidate " << c;
            if (gain > best_gain) {
                best_gain = gain;
                best = c;
            }
        }
        state.select(best);
        s.push_back(best);
    }
    EXPECT_EQ(s.size(), n - 1);
}
