/**
 * @file
 * Tests for the four feature extraction blocks (Section 4.4).
 */

#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "blocks/feature_block.h"
#include "sc/rng.h"

namespace scdcnn {
namespace blocks {
namespace {

using Field = std::vector<std::vector<double>>;

/** Random receptive fields / weights, values in [-1, 1]. */
std::pair<Field, Field>
randomFields(size_t pool, size_t n, uint64_t seed)
{
    sc::SplitMix64 rng(seed);
    Field xs(pool), ws(pool);
    for (size_t j = 0; j < pool; ++j) {
        for (size_t i = 0; i < n; ++i) {
            xs[j].push_back(rng.nextInRange(-1.0, 1.0));
            ws[j].push_back(rng.nextInRange(-1.0, 1.0));
        }
    }
    return {xs, ws};
}

double
meanInaccuracy(FebKind kind, size_t n, size_t len, int trials,
               uint64_t seed)
{
    FebConfig cfg;
    cfg.kind = kind;
    cfg.n_inputs = n;
    cfg.length = len;
    FeatureBlock feb(cfg);
    double err = 0;
    for (int t = 0; t < trials; ++t) {
        auto [xs, ws] = randomFields(4, n, seed + t);
        double got = feb.evaluate(xs, ws, seed * 31 + t);
        double want = FeatureBlock::reference(xs, ws, kind);
        err += std::abs(got - want);
    }
    return err / trials;
}

TEST(FebKindNames, AllDistinctAndDescriptive)
{
    EXPECT_EQ(febKindName(FebKind::MuxAvgStanh), "MUX-Avg-Stanh");
    EXPECT_EQ(febKindName(FebKind::MuxMaxStanh), "MUX-Max-Stanh");
    EXPECT_EQ(febKindName(FebKind::ApcAvgBtanh), "APC-Avg-Btanh");
    EXPECT_EQ(febKindName(FebKind::ApcMaxBtanh), "APC-Max-Btanh");
}

TEST(FebKindTraits, ApcAndMaxFlags)
{
    EXPECT_FALSE(febUsesApc(FebKind::MuxAvgStanh));
    EXPECT_TRUE(febUsesApc(FebKind::ApcMaxBtanh));
    EXPECT_TRUE(febUsesMaxPool(FebKind::MuxMaxStanh));
    EXPECT_FALSE(febUsesMaxPool(FebKind::ApcAvgBtanh));
}

TEST(FeatureBlockReference, AvgKindsUseMeanPooling)
{
    Field xs = {{1.0}, {1.0}, {1.0}, {1.0}};
    Field ws = {{0.1}, {0.2}, {0.3}, {0.4}};
    // mean(0.1,0.2,0.3,0.4) = 0.25
    EXPECT_NEAR(FeatureBlock::reference(xs, ws, FebKind::ApcAvgBtanh),
                std::tanh(0.25), 1e-12);
}

TEST(FeatureBlockReference, MaxKindsUseMaxPooling)
{
    Field xs = {{1.0}, {1.0}, {1.0}, {1.0}};
    Field ws = {{0.1}, {0.2}, {0.3}, {-0.4}};
    EXPECT_NEAR(FeatureBlock::reference(xs, ws, FebKind::ApcMaxBtanh),
                std::tanh(0.3), 1e-12);
}

/**
 * Fig. 14 headline property: the APC-based blocks are substantially more
 * accurate than the MUX-based blocks at every size.
 */
class FebAccuracyOrdering : public ::testing::TestWithParam<int>
{
};

TEST_P(FebAccuracyOrdering, ApcBeatsMux)
{
    const int n = GetParam();
    double mux = meanInaccuracy(FebKind::MuxAvgStanh, n, 1024, 12, 900);
    double apc = meanInaccuracy(FebKind::ApcAvgBtanh, n, 1024, 12, 900);
    EXPECT_LT(apc, mux) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, FebAccuracyOrdering,
                         ::testing::Values(16, 64));

TEST(FebAccuracy, ApcAvgBtanhIsAccurate)
{
    // Eq. (3) sizing reproduces tanh(mean inner product) closely.
    double err = meanInaccuracy(FebKind::ApcAvgBtanh, 16, 1024, 20, 901);
    EXPECT_LT(err, 0.15);
}

TEST(FebAccuracy, ApcMaxBtanhIsAccurate)
{
    double err = meanInaccuracy(FebKind::ApcMaxBtanh, 16, 1024, 20, 902);
    EXPECT_LT(err, 0.2);
}

TEST(FebAccuracy, ApcMaxImprovesWithMoreInputs)
{
    // Section 6.1: APC-Max-Btanh is the one design whose accuracy does
    // not degrade with input size (max selection gets easier).
    double small = meanInaccuracy(FebKind::ApcMaxBtanh, 16, 1024, 15, 903);
    double large = meanInaccuracy(FebKind::ApcMaxBtanh, 128, 1024, 15, 903);
    EXPECT_LT(large, small + 0.05);
}

TEST(FebAccuracy, MuxBlocksDegradeWithInputSize)
{
    double small = meanInaccuracy(FebKind::MuxAvgStanh, 16, 1024, 15, 904);
    double large = meanInaccuracy(FebKind::MuxAvgStanh, 256, 1024, 15, 904);
    EXPECT_GT(large, small);
}

TEST(FebAccuracy, LongerStreamsHelpMuxMax)
{
    double short_l =
        meanInaccuracy(FebKind::MuxMaxStanh, 32, 256, 15, 905);
    double long_l =
        meanInaccuracy(FebKind::MuxMaxStanh, 32, 4096, 15, 905);
    EXPECT_LT(long_l, short_l + 0.02);
}

TEST(FebStateCounts, FollowPolicy)
{
    FebConfig cfg;
    cfg.kind = FebKind::MuxAvgStanh;
    cfg.n_inputs = 16;
    cfg.length = 1024;
    EXPECT_EQ(FeatureBlock(cfg).stateCount(), 10u);
    cfg.kind = FebKind::ApcAvgBtanh;
    EXPECT_EQ(FeatureBlock(cfg).stateCount(), 8u);
    cfg.kind = FebKind::ApcMaxBtanh;
    EXPECT_EQ(FeatureBlock(cfg).stateCount(), 32u);
}

TEST(FeatureBlock, DeterministicForSameSeed)
{
    FebConfig cfg;
    cfg.kind = FebKind::ApcMaxBtanh;
    cfg.n_inputs = 16;
    cfg.length = 512;
    FeatureBlock feb(cfg);
    auto [xs, ws] = randomFields(4, 16, 42);
    EXPECT_DOUBLE_EQ(feb.evaluate(xs, ws, 7), feb.evaluate(xs, ws, 7));
}

TEST(FeatureBlock, OutputInBipolarRange)
{
    for (FebKind kind : {FebKind::MuxAvgStanh, FebKind::MuxMaxStanh,
                         FebKind::ApcAvgBtanh, FebKind::ApcMaxBtanh}) {
        FebConfig cfg;
        cfg.kind = kind;
        cfg.n_inputs = 16;
        cfg.length = 256;
        FeatureBlock feb(cfg);
        auto [xs, ws] = randomFields(4, 16, 55);
        double v = feb.evaluate(xs, ws, 3);
        EXPECT_GE(v, -1.0);
        EXPECT_LE(v, 1.0);
    }
}

TEST(FeatureBlock, SaturatedPositiveInputs)
{
    // All x=w=1: every inner product sum is N, tanh(N) ~ 1; every
    // design must saturate high.
    Field xs(4, std::vector<double>(16, 1.0));
    Field ws(4, std::vector<double>(16, 1.0));
    for (FebKind kind : {FebKind::MuxAvgStanh, FebKind::MuxMaxStanh,
                         FebKind::ApcAvgBtanh, FebKind::ApcMaxBtanh}) {
        FebConfig cfg;
        cfg.kind = kind;
        cfg.n_inputs = 16;
        cfg.length = 1024;
        FeatureBlock feb(cfg);
        EXPECT_GT(feb.evaluate(xs, ws, 9), 0.8) << febKindName(kind);
    }
}

} // namespace
} // namespace blocks
} // namespace scdcnn
