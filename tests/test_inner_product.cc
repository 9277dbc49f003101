/**
 * @file
 * Tests for the four inner-product block designs (Section 4.1).
 */

#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "blocks/inner_product.h"
#include "sc/counter.h"
#include "sc/rng.h"

namespace scdcnn {
namespace blocks {
namespace {

std::pair<std::vector<double>, std::vector<double>>
randomOperands(size_t n, uint64_t seed, double lo = -1.0, double hi = 1.0)
{
    sc::SplitMix64 rng(seed);
    std::vector<double> xs(n), ws(n);
    for (size_t i = 0; i < n; ++i) {
        xs[i] = rng.nextInRange(lo, hi);
        ws[i] = rng.nextInRange(lo, hi);
    }
    return {xs, ws};
}

TEST(InnerProductReference, MatchesManualDotProduct)
{
    EXPECT_DOUBLE_EQ(
        innerProductReference({1.0, -0.5, 0.25}, {0.5, 0.5, 4.0}),
        1.0 * 0.5 - 0.5 * 0.5 + 0.25 * 4.0);
}

TEST(ProductStreams, BipolarProductsAreXnor)
{
    sc::SngBank bank(1);
    auto xs = encodeBipolar({0.5, -0.5}, 1 << 14, bank);
    auto ws = encodeBipolar({0.5, 0.5}, 1 << 14, bank);
    auto ps = productStreams(xs, ws);
    ASSERT_EQ(ps.size(), 2u);
    EXPECT_NEAR(ps[0].bipolar(), 0.25, 0.03);
    EXPECT_NEAR(ps[1].bipolar(), -0.25, 0.03);
}

/** MUX block estimates sum x.w with error falling as L grows. */
class MuxInnerProductSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(MuxInnerProductSweep, EstimateTracksReference)
{
    auto [n, len] = GetParam();
    double err = 0;
    const int trials = 10;
    for (int t = 0; t < trials; ++t) {
        auto [xs, ws] = randomOperands(n, 1000 + t);
        sc::SngBank bank(50 + t);
        double got = MuxInnerProduct::estimate(xs, ws, len, bank);
        err += std::abs(got - innerProductReference(xs, ws));
    }
    err /= trials;
    // MUX noise scales like n/sqrt(L); keep a generous envelope.
    double envelope = 3.0 * n / std::sqrt(static_cast<double>(len));
    EXPECT_LT(err, envelope) << "n=" << n << " L=" << len;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MuxInnerProductSweep,
    ::testing::Combine(::testing::Values(16, 32, 64),
                       ::testing::Values(512, 1024, 4096)));

TEST(MuxInnerProduct, Table2ErrorGrowsWithInputSize)
{
    // Table 2 row trend: at fixed L, error grows with n.
    auto mean_err = [](int n) {
        double e = 0;
        for (int t = 0; t < 30; ++t) {
            auto [xs, ws] = randomOperands(n, 2000 + t);
            sc::SngBank bank(70 + t);
            e += std::abs(MuxInnerProduct::estimate(xs, ws, 1024, bank) -
                          innerProductReference(xs, ws));
        }
        return e / 30;
    };
    EXPECT_LT(mean_err(16), mean_err(64));
}

TEST(MuxInnerProduct, Table2ErrorShrinksWithLength)
{
    auto mean_err = [](int len) {
        double e = 0;
        for (int t = 0; t < 30; ++t) {
            auto [xs, ws] = randomOperands(32, 3000 + t);
            sc::SngBank bank(90 + t);
            e += std::abs(MuxInnerProduct::estimate(xs, ws, len, bank) -
                          innerProductReference(xs, ws));
        }
        return e / 30;
    };
    EXPECT_LT(mean_err(4096), mean_err(512));
}

TEST(MuxInnerProduct, OutputStreamIsScaledByN)
{
    // All-ones inputs and weights: every product is +1, so the MUX
    // output is the constant +1 stream and decodes to n * 1.
    const size_t n = 8;
    std::vector<double> xs(n, 1.0), ws(n, 1.0);
    sc::SngBank bank(5);
    sc::Bitstream out = MuxInnerProduct::compute(xs, ws, 2048, bank);
    EXPECT_DOUBLE_EQ(out.bipolar(), 1.0);
}

/** APC block: near-exact non-scaled sums. */
class ApcInnerProductSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ApcInnerProductSweep, DecodeTracksReference)
{
    const int n = GetParam();
    double err = 0;
    const int trials = 10;
    for (int t = 0; t < trials; ++t) {
        auto [xs, ws] = randomOperands(n, 4000 + t);
        sc::SngBank bank(110 + t);
        auto counts = ApcInnerProduct::counts(xs, ws, 1024, bank, true);
        double got = ApcInnerProduct::decode(counts, n);
        err += std::abs(got - innerProductReference(xs, ws));
    }
    err /= trials;
    // Binary counting keeps full precision: error is SNG noise only,
    // ~sqrt(n)/sqrt(L) in sum units.
    EXPECT_LT(err, 3.0 * std::sqrt(n / 1024.0)) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ApcInnerProductSweep,
                         ::testing::Values(16, 32, 64, 128));

TEST(ApcInnerProduct, ApproximateVsExactWithinTable3Band)
{
    // Table 3: APC vs conventional parallel counter differ by < ~1%.
    const int n = 16;
    double rel = 0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
        auto [xs, ws] = randomOperands(n, 5000 + t, 0.0, 1.0);
        sc::SngBank bank_a(130 + t);
        sc::SngBank bank_b(130 + t); // identical streams for both
        auto apc = ApcInnerProduct::counts(xs, ws, 512, bank_a, true);
        auto pc = ApcInnerProduct::counts(xs, ws, 512, bank_b, false);
        double sum_apc = 0, sum_pc = 0;
        for (size_t i = 0; i < apc.size(); ++i) {
            sum_apc += apc[i];
            sum_pc += pc[i];
        }
        rel += std::abs(sum_apc - sum_pc) / sum_pc;
    }
    EXPECT_LT(rel / trials, 0.011);
}

TEST(ApcInnerProduct, DecodeOfConstantCountsIsExact)
{
    // n=4, all counts 3 -> per-cycle value 2*3-4 = 2.
    std::vector<uint16_t> counts(100, 3);
    EXPECT_DOUBLE_EQ(ApcInnerProduct::decode(counts, 4), 2.0);
}

TEST(OrInnerProduct, UnipolarReasonableWithPreScaling)
{
    // Table 1 regime: unipolar operands, best pre-scale, n=16 -> error
    // around 0.5 in sum units (sums average n/4 = 4).
    const size_t n = 16;
    double best = 1e9;
    for (double scale : OrInnerProduct::scaleCandidates(n)) {
        double err = 0;
        const int trials = 20;
        for (int t = 0; t < trials; ++t) {
            auto [xs, ws] = randomOperands(n, 6000 + t, 0.0, 1.0);
            sc::SngBank bank(150 + t);
            double got = OrInnerProduct::estimateUnipolar(xs, ws, scale,
                                                          1024, bank);
            err += std::abs(got - innerProductReference(xs, ws));
        }
        best = std::min(best, err / trials);
    }
    EXPECT_LT(best, 1.0);
    EXPECT_GT(best, 0.05); // it is lossy — not magically exact
}

TEST(OrInnerProduct, BipolarMuchWorseThanUnipolar)
{
    // Table 1's conclusion: bipolar OR addition is unusable.
    const size_t n = 16;
    auto best_err = [n](bool bipolar) {
        double best = 1e9;
        for (double scale : OrInnerProduct::scaleCandidates(n)) {
            double err = 0;
            const int trials = 15;
            for (int t = 0; t < trials; ++t) {
                auto [xs, ws] =
                    bipolar ? randomOperands(n, 7000 + t)
                            : randomOperands(n, 7000 + t, 0.0, 1.0);
                sc::SngBank bank(170 + t);
                double got =
                    bipolar ? OrInnerProduct::estimateBipolar(xs, ws, scale,
                                                              1024, bank)
                            : OrInnerProduct::estimateUnipolar(
                                  xs, ws, scale, 1024, bank);
                err += std::abs(got - innerProductReference(xs, ws));
            }
            best = std::min(best, err / trials);
        }
        return best;
    };
    EXPECT_GT(best_err(true), 2.0 * best_err(false));
}

TEST(OrInnerProduct, ScaleCandidatesCoverWideRange)
{
    auto scales = OrInnerProduct::scaleCandidates(16);
    EXPECT_GE(scales.size(), 5u);
    EXPECT_DOUBLE_EQ(scales.front(), 1.0);
    EXPECT_GE(scales.back(), 32.0);
}

} // namespace
} // namespace blocks
} // namespace scdcnn
