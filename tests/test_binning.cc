/**
 * @file
 * Unit tests for feature binning.
 */

#include <gtest/gtest.h>

#include "ml/binning.hh"
#include "util/rng.hh"

using namespace gcm::ml;

namespace
{

Dataset
columnDataset(const std::vector<float> &col)
{
    Dataset ds(1);
    for (float v : col)
        ds.addRow({v}, 0.0);
    return ds;
}

/**
 * Two blocks over 300 rows: 11 keys x {tied, constant, distinct}
 * columns and 40 keys x {tied, distinct, constant} columns.
 */
BlockedDataset
blockedFixture()
{
    gcm::Rng rng(11);
    ColumnBlock small, wide;
    small.width = 3;
    for (int k = 0; k < 11; ++k) {
        small.table.insert(small.table.end(),
                           {static_cast<float>(k % 4), 7.0f,
                            static_cast<float>(rng.uniform(-1, 1))});
    }
    wide.width = 3;
    for (int k = 0; k < 40; ++k) {
        wide.table.insert(wide.table.end(),
                          {static_cast<float>(k / 3),
                           static_cast<float>(rng.normal()), -3.0f});
    }
    std::vector<double> labels(300, 0.0);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        small.keys.push_back(
            static_cast<std::uint32_t>(rng.uniformInt(0, 10)));
        wide.keys.push_back(
            static_cast<std::uint32_t>(rng.uniformInt(0, 39)));
    }
    return BlockedDataset({small, wide}, labels);
}

} // namespace

TEST(Binning, BlockedMatchesDenseExpansion)
{
    const BlockedDataset blocked = blockedFixture();
    const Dataset dense = blocked.toDense();
    // A sample cap below the row count (strided sample) and above it.
    for (const std::size_t cap : {64UL, 4096UL}) {
        for (const std::size_t max_bins : {4UL, 64UL}) {
            const BinnedMatrix b(blocked, max_bins, cap);
            const BinnedMatrix d(dense, max_bins, cap);
            ASSERT_EQ(b.numFeatures(), d.numFeatures());
            EXPECT_EQ(b.activeFeatures(), d.activeFeatures());
            EXPECT_EQ(b.activeFeatures(),
                      (std::vector<std::size_t>{0, 2, 3, 4}));
            for (std::size_t f = 0; f < d.numFeatures(); ++f) {
                EXPECT_EQ(b.featureBins(f).cuts, d.featureBins(f).cuts)
                    << "feature " << f << " cap " << cap;
                for (std::size_t i = 0; i < d.numRows(); ++i)
                    ASSERT_EQ(b.binAt(f, i), d.binAt(f, i));
            }
        }
    }
}

TEST(Binning, ConstantFeatureDetected)
{
    const auto ds = columnDataset({2, 2, 2, 2});
    BinnedMatrix bm(ds, 16);
    EXPECT_TRUE(bm.featureBins(0).isConstant());
    EXPECT_TRUE(bm.activeFeatures().empty());
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(bm.binAt(0, i), 0);
}

TEST(Binning, BinIndicesMonotoneInValue)
{
    std::vector<float> col;
    for (int i = 0; i < 128; ++i)
        col.push_back(static_cast<float>(i));
    const auto ds = columnDataset(col);
    BinnedMatrix bm(ds, 8);
    for (std::size_t i = 1; i < 128; ++i)
        EXPECT_GE(bm.binAt(0, i), bm.binAt(0, i - 1));
    // First and last values land in different bins.
    EXPECT_LT(bm.binAt(0, 0), bm.binAt(0, 127));
}

TEST(Binning, NumBinsBounded)
{
    std::vector<float> col;
    for (int i = 0; i < 1000; ++i)
        col.push_back(static_cast<float>(i % 100));
    const auto ds = columnDataset(col);
    BinnedMatrix bm(ds, 8);
    EXPECT_LE(bm.featureBins(0).numBins(), 8u);
    EXPECT_GE(bm.featureBins(0).numBins(), 2u);
}

TEST(Binning, BinaryFeatureGetsTwoBins)
{
    const auto ds = columnDataset({0, 0, 0, 1, 0, 1, 0, 0});
    BinnedMatrix bm(ds, 64);
    EXPECT_EQ(bm.featureBins(0).numBins(), 2u);
    EXPECT_EQ(bm.binAt(0, 0), 0);
    EXPECT_EQ(bm.binAt(0, 3), 1);
}

TEST(Binning, BinOfConsistentWithStoredCodes)
{
    std::vector<float> col{5, 1, 9, 3, 7, 2, 8};
    const auto ds = columnDataset(col);
    BinnedMatrix bm(ds, 4);
    for (std::size_t i = 0; i < col.size(); ++i)
        EXPECT_EQ(bm.featureBins(0).binOf(col[i]), bm.binAt(0, i));
}

TEST(Binning, ActiveFeaturesListsNonConstantOnly)
{
    Dataset ds(3);
    for (int i = 0; i < 10; ++i) {
        ds.addRow({static_cast<float>(i), 7.0f,
                   static_cast<float>(i % 2)},
                  0.0);
    }
    BinnedMatrix bm(ds, 8);
    EXPECT_EQ(bm.activeFeatures(),
              (std::vector<std::size_t>{0, 2}));
}

TEST(Binning, QuantileSubsampleStillCoversRange)
{
    // More rows than the quantile sample cap.
    std::vector<float> col;
    for (int i = 0; i < 10000; ++i)
        col.push_back(static_cast<float>(i));
    const auto ds = columnDataset(col);
    BinnedMatrix bm(ds, 16, /*quantile_sample_cap=*/512);
    EXPECT_GT(bm.binAt(0, 9999), bm.binAt(0, 0));
}
