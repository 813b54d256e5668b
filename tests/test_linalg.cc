/**
 * @file
 * Unit tests for the small linear-algebra helpers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/linalg.hh"
#include "util/error.hh"

using namespace gcm::stats;
using gcm::GcmError;

TEST(Linalg, CholeskyLogDetIdentity)
{
    SymmetricMatrix m(3);
    for (std::size_t i = 0; i < 3; ++i)
        m.at(i, i) = 1.0;
    EXPECT_NEAR(choleskyLogDet(m), 0.0, 1e-12);
}

TEST(Linalg, CholeskyLogDetDiagonal)
{
    SymmetricMatrix m(2);
    m.at(0, 0) = 4.0;
    m.at(1, 1) = 9.0;
    EXPECT_NEAR(choleskyLogDet(m), std::log(36.0), 1e-12);
}

TEST(Linalg, CholeskyLogDetGeneral)
{
    // det([[2,1],[1,2]]) = 3.
    SymmetricMatrix m(2);
    m.at(0, 0) = 2.0;
    m.at(0, 1) = 1.0;
    m.at(1, 0) = 1.0;
    m.at(1, 1) = 2.0;
    EXPECT_NEAR(choleskyLogDet(m), std::log(3.0), 1e-12);
}

TEST(Linalg, NonPositiveDefiniteThrows)
{
    SymmetricMatrix m(2);
    m.at(0, 0) = 1.0;
    m.at(0, 1) = 2.0;
    m.at(1, 0) = 2.0;
    m.at(1, 1) = 1.0; // eigenvalues 3, -1
    EXPECT_THROW(choleskyLogDet(m), GcmError);
}

TEST(Linalg, CholeskyInverseTimesMatrixIsIdentity)
{
    // [[4,2,0.6],[2,5,1],[0.6,1,3]] is symmetric positive definite.
    SymmetricMatrix m(3);
    const double v[3][3] = {{4, 2, 0.6}, {2, 5, 1}, {0.6, 1, 3}};
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j)
            m.at(i, j) = v[i][j];
    }
    const auto inv = choleskyInverse(m);
    EXPECT_EQ(inv.log_det, choleskyLogDet(m));
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < 3; ++k)
                s += m.at(i, k) * inv.inverse.at(k, j);
            EXPECT_NEAR(s, i == j ? 1.0 : 0.0, 1e-12);
            EXPECT_EQ(inv.inverse.at(i, j), inv.inverse.at(j, i));
        }
    }
}

TEST(Linalg, CholeskyInverseOfIndefiniteThrows)
{
    SymmetricMatrix m(2);
    m.at(0, 0) = 1.0;
    m.at(0, 1) = 2.0;
    m.at(1, 0) = 2.0;
    m.at(1, 1) = 1.0;
    EXPECT_THROW(choleskyInverse(m), GcmError);
}

TEST(Linalg, CovarianceDiagonalIsVariance)
{
    const std::vector<std::vector<double>> vars = {
        {1, 2, 3, 4}, {2, 2, 2, 2}};
    const auto cov = covarianceMatrix(vars);
    EXPECT_NEAR(cov.at(0, 0), 5.0 / 3.0, 1e-12); // var of 1..4
    EXPECT_NEAR(cov.at(1, 1), 0.0, 1e-12);
    EXPECT_NEAR(cov.at(0, 1), 0.0, 1e-12);
}

TEST(Linalg, CovarianceOfPerfectlyCorrelated)
{
    const std::vector<std::vector<double>> vars = {
        {1, 2, 3}, {2, 4, 6}};
    const auto cov = covarianceMatrix(vars);
    EXPECT_NEAR(cov.at(0, 1), 2.0 * cov.at(0, 0), 1e-12);
}

TEST(Linalg, CovarianceRidgeAddsToDiagonal)
{
    const std::vector<std::vector<double>> vars = {{1, 2, 3}};
    const auto plain = covarianceMatrix(vars, 0.0);
    const auto ridged = covarianceMatrix(vars, 0.5);
    EXPECT_NEAR(ridged.at(0, 0) - plain.at(0, 0), 0.5, 1e-12);
}

TEST(Linalg, Submatrix)
{
    SymmetricMatrix m(3);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j)
            m.at(i, j) = static_cast<double>(i * 3 + j);
    }
    const auto sub = m.submatrix({0, 2});
    EXPECT_EQ(sub.size(), 2u);
    EXPECT_DOUBLE_EQ(sub.at(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(sub.at(1, 0), 6.0);
    EXPECT_DOUBLE_EQ(sub.at(1, 1), 8.0);
}
