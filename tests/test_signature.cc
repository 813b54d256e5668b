/**
 * @file
 * Unit tests for signature-set selection (RS / MIS / SCCS).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "core/evaluation.hh"
#include "core/experiment_context.hh"
#include "core/signature.hh"
#include "stats/kmeans.hh"
#include "stats/mutual_info.hh"
#include "util/error.hh"
#include "util/rng.hh"

using namespace gcm::core;
using gcm::GcmError;
using gcm::Rng;

namespace
{

bool
allDistinct(const std::vector<std::size_t> &v)
{
    std::set<std::size_t> s(v.begin(), v.end());
    return s.size() == v.size();
}

/**
 * Synthetic latency matrix with redundancy structure: `groups`
 * clusters of networks; members of a cluster are near-duplicates
 * (same device response + tiny noise), clusters are independent.
 */
std::vector<std::vector<double>>
clusteredLatencies(std::size_t groups, std::size_t per_group,
                   std::size_t devices, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> base(groups);
    for (auto &row : base) {
        for (std::size_t d = 0; d < devices; ++d)
            row.push_back(std::exp(rng.uniform(2.0, 6.0)));
    }
    std::vector<std::vector<double>> nets;
    for (std::size_t g = 0; g < groups; ++g) {
        for (std::size_t m = 0; m < per_group; ++m) {
            std::vector<double> row = base[g];
            for (auto &v : row)
                v *= rng.uniform(0.99, 1.01);
            nets.push_back(std::move(row));
        }
    }
    return nets;
}

std::size_t
groupOf(std::size_t net_idx, std::size_t per_group)
{
    return net_idx / per_group;
}

} // namespace

TEST(SignatureRs, SizeAndDistinctness)
{
    const auto sig = selectRandomSignature(118, 10, 42);
    EXPECT_EQ(sig.size(), 10u);
    EXPECT_TRUE(allDistinct(sig));
    for (std::size_t s : sig)
        EXPECT_LT(s, 118u);
}

TEST(SignatureRs, DeterministicPerSeed)
{
    EXPECT_EQ(selectRandomSignature(50, 5, 7),
              selectRandomSignature(50, 5, 7));
    EXPECT_NE(selectRandomSignature(50, 5, 7),
              selectRandomSignature(50, 5, 8));
}

TEST(SignatureMis, PicksAcrossRedundancyGroups)
{
    // 5 groups of 6 near-identical networks: a 5-network signature
    // should touch all 5 groups (picking duplicates wastes MI).
    const auto lat = clusteredLatencies(5, 6, 40, 1);
    SignatureConfig cfg;
    const auto sig = selectMisSignature(lat, 5, cfg);
    EXPECT_TRUE(allDistinct(sig));
    std::set<std::size_t> groups;
    for (std::size_t s : sig)
        groups.insert(groupOf(s, 6));
    EXPECT_EQ(groups.size(), 5u);
}

TEST(SignatureMis, HistogramEstimatorAlsoSpreads)
{
    const auto lat = clusteredLatencies(4, 5, 60, 2);
    SignatureConfig cfg;
    cfg.mi_estimator = MiEstimatorKind::Histogram;
    const auto sig = selectMisSignature(lat, 4, cfg);
    std::set<std::size_t> groups;
    for (std::size_t s : sig)
        groups.insert(groupOf(s, 5));
    EXPECT_GE(groups.size(), 3u);
}

TEST(SignatureMis, PrefixProperty)
{
    const auto lat = clusteredLatencies(5, 4, 30, 3);
    SignatureConfig cfg;
    const auto big = selectMisSignature(lat, 8, cfg);
    const auto small = selectMisSignature(lat, 4, cfg);
    ASSERT_EQ(small.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(small[i], big[i]);
}

TEST(SignatureSccs, RemovesCorrelatedGroup)
{
    const auto lat = clusteredLatencies(5, 6, 40, 4);
    SignatureConfig cfg;
    cfg.sccs_gamma = 0.95;
    const auto sig = selectSccsSignature(lat, 5, cfg);
    EXPECT_TRUE(allDistinct(sig));
    std::set<std::size_t> groups;
    for (std::size_t s : sig)
        groups.insert(groupOf(s, 6));
    // Each pick removes its own highly-correlated group, so the five
    // picks should cover the five groups.
    EXPECT_EQ(groups.size(), 5u);
}

TEST(SignatureSccs, GammaRelaxationWhenExhausted)
{
    // 2 groups but 6 networks requested: the pool empties after two
    // picks and the documented gamma-relaxation path must kick in.
    const auto lat = clusteredLatencies(2, 4, 30, 5);
    SignatureConfig cfg;
    cfg.sccs_gamma = 0.9;
    const auto sig = selectSccsSignature(lat, 6, cfg);
    EXPECT_EQ(sig.size(), 6u);
    EXPECT_TRUE(allDistinct(sig));
}

TEST(Signature, DispatchMatchesDirectCalls)
{
    const auto lat = clusteredLatencies(4, 4, 30, 6);
    SignatureConfig cfg;
    cfg.size = 4;
    cfg.seed = 11;
    EXPECT_EQ(selectSignature(lat, SignatureMethod::RandomSampling, cfg),
              selectRandomSignature(lat.size(), 4, 11));
    EXPECT_EQ(
        selectSignature(lat, SignatureMethod::MutualInformation, cfg),
        selectMisSignature(lat, 4, cfg));
    EXPECT_EQ(
        selectSignature(lat, SignatureMethod::SpearmanCorrelation, cfg),
        selectSccsSignature(lat, 4, cfg));
}

TEST(Signature, MethodNames)
{
    EXPECT_STREQ(signatureMethodName(SignatureMethod::RandomSampling),
                 "RS");
    EXPECT_STREQ(signatureMethodName(SignatureMethod::MutualInformation),
                 "MIS");
    EXPECT_STREQ(
        signatureMethodName(SignatureMethod::SpearmanCorrelation),
        "SCCS");
}

TEST(Signature, OversizedRequestAborts)
{
    const auto lat = clusteredLatencies(2, 2, 10, 7);
    EXPECT_DEATH((void)selectRandomSignature(4, 5, 1), "larger");
    SignatureConfig cfg;
    EXPECT_DEATH((void)selectMisSignature(lat, 5, cfg), "larger");
}

TEST(Signature, NonPositiveLatencyAborts)
{
    std::vector<std::vector<double>> lat = {{1.0, 2.0}, {0.0, 3.0}};
    SignatureConfig cfg;
    EXPECT_DEATH((void)selectMisSignature(lat, 1, cfg), "non-positive");
}

// --- incremental Gaussian MIS against the per-candidate definition ------

namespace
{

/**
 * The greedy loop as first written: every step evaluates setMi(S+c,
 * R-c) for every candidate c with three Cholesky log-determinants,
 * and a strict `>` scan in index order keeps the lowest index on ties.
 */
std::vector<std::size_t>
oracleMisGaussian(const std::vector<std::vector<double>> &net_latencies,
                  std::size_t m, double ridge)
{
    std::vector<std::vector<double>> vars = net_latencies;
    for (auto &row : vars) {
        for (auto &v : row)
            v = std::log(v);
    }
    const std::size_t n = vars.size();
    const gcm::stats::GaussianMiEstimator mi(vars, ridge);
    std::vector<bool> chosen(n, false);
    std::vector<std::size_t> subset;
    for (std::size_t step = 0; step < m; ++step) {
        double best_gain = -std::numeric_limits<double>::max();
        std::size_t best = n;
        for (std::size_t c = 0; c < n; ++c) {
            if (chosen[c])
                continue;
            std::vector<std::size_t> s = subset;
            s.push_back(c);
            std::vector<std::size_t> rest;
            for (std::size_t i = 0; i < n; ++i) {
                if (!chosen[i] && i != c)
                    rest.push_back(i);
            }
            if (rest.empty())
                continue;
            const double gain = mi.setMi(s, rest);
            if (gain > best_gain) {
                best_gain = gain;
                best = c;
            }
        }
        if (best == n)
            break;
        chosen[best] = true;
        subset.push_back(best);
    }
    return subset;
}

const ExperimentContext &
paperContext()
{
    static const ExperimentContext ctx = ExperimentContext::build();
    return ctx;
}

/**
 * Greedy picks are prefix-stable, so one size-20 selection covers the
 * Fig. 11 sizes 2-20 at once.
 */
void
expectMisMatchesOracle(const std::vector<std::size_t> &train_devices)
{
    const auto lat = paperContext().latencyMatrix(train_devices);
    SignatureConfig cfg;
    cfg.size = 20;
    const auto picks = selectMisSignature(lat, cfg.size, cfg);
    EXPECT_EQ(picks, oracleMisGaussian(lat, cfg.size, cfg.mi_ridge));
}

void
expectMisMatchesOracleOnPaperSplit(std::uint64_t seed)
{
    expectMisMatchesOracle(
        splitDevices(paperContext().fleet().size(), 0.3, seed).train);
}

/** Table I: train on every device outside k-means cluster `held_out`. */
void
expectMisMatchesOracleOnClusterSplit(std::size_t held_out)
{
    const auto vectors = paperContext().deviceVectors();
    const auto km = gcm::stats::kMeans(vectors, gcm::stats::KMeansConfig{});
    std::vector<std::size_t> train;
    for (std::size_t d = 0; d < vectors.size(); ++d) {
        if (km.assignments[d] != held_out)
            train.push_back(d);
    }
    ASSERT_LT(train.size(), vectors.size());
    expectMisMatchesOracle(train);
}

} // namespace

TEST(SignatureMisOracle, PaperSplitSeed1)
{
    expectMisMatchesOracleOnPaperSplit(1);
}

TEST(SignatureMisOracle, PaperSplitSeed2)
{
    expectMisMatchesOracleOnPaperSplit(2);
}

TEST(SignatureMisOracle, PaperSplitSeed3)
{
    expectMisMatchesOracleOnPaperSplit(3);
}

TEST(SignatureMisOracle, ClusterSplitHoldsOutCluster0)
{
    expectMisMatchesOracleOnClusterSplit(0);
}

TEST(SignatureMisOracle, ClusterSplitHoldsOutCluster1)
{
    expectMisMatchesOracleOnClusterSplit(1);
}

TEST(SignatureMisOracle, ClusterSplitHoldsOutCluster2)
{
    expectMisMatchesOracleOnClusterSplit(2);
}

TEST(SignatureMisOracle, SyntheticGroupsAtEverySize)
{
    // Runs to |R| = 1, where no candidate may be taken any more.
    const auto lat = clusteredLatencies(5, 4, 30, 8);
    SignatureConfig cfg;
    for (std::size_t m = 1; m < lat.size(); ++m) {
        EXPECT_EQ(selectMisSignature(lat, m, cfg),
                  oracleMisGaussian(lat, m, cfg.mi_ridge))
            << "size " << m;
    }
}
