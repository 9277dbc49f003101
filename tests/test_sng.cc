/**
 * @file
 * Tests for stochastic number generators: expected values, saturation,
 * determinism, stream independence, and the word-at-a-time bodies
 * (scalar, AVX2, SngBank::bipolarInto) against the per-bit reference
 * twin.
 */

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "sc/bitstream.h"
#include "sc/ops.h"
#include "sc/rng.h"
#include "sc/simd.h"
#include "sc/sng.h"

namespace scdcnn {
namespace sc {
namespace {

TEST(ConstantStream, AllOnesIsPlusOne)
{
    Bitstream s = constantStream(true, 100);
    EXPECT_EQ(s.countOnes(), 100u);
    EXPECT_DOUBLE_EQ(s.bipolar(), 1.0);
}

TEST(ConstantStream, AllZerosIsMinusOne)
{
    Bitstream s = constantStream(false, 100);
    EXPECT_EQ(s.countOnes(), 0u);
    EXPECT_DOUBLE_EQ(s.bipolar(), -1.0);
}

/** Unipolar SNG value sweep, both sources. */
class SngUnipolarSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(SngUnipolarSweep, XoshiroHitsExpectedValue)
{
    const double p = GetParam();
    Xoshiro256ss rng(1234);
    Bitstream s = sngUnipolar(p, 1 << 16, rng);
    EXPECT_NEAR(s.unipolar(), p, 0.01);
}

TEST_P(SngUnipolarSweep, LfsrHitsExpectedValue)
{
    const double p = GetParam();
    Lfsr lfsr(16, 0xACE1);
    Bitstream s = sngUnipolar(p, 1 << 16, lfsr);
    // One full LFSR period is essentially exact (quasi-uniform source).
    EXPECT_NEAR(s.unipolar(), p, 0.002);
}

INSTANTIATE_TEST_SUITE_P(Values, SngUnipolarSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.4, 0.5, 0.6,
                                           0.75, 0.9, 1.0));

/** Bipolar SNG value sweep. */
class SngBipolarSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(SngBipolarSweep, XoshiroHitsExpectedValue)
{
    const double x = GetParam();
    Xoshiro256ss rng(99);
    Bitstream s = sngBipolar(x, 1 << 16, rng);
    EXPECT_NEAR(s.bipolar(), x, 0.02);
}

TEST_P(SngBipolarSweep, LfsrHitsExpectedValue)
{
    const double x = GetParam();
    Lfsr lfsr(16, 0xBEEF);
    Bitstream s = sngBipolar(x, 1 << 16, lfsr);
    EXPECT_NEAR(s.bipolar(), x, 0.004);
}

INSTANTIATE_TEST_SUITE_P(Values, SngBipolarSweep,
                         ::testing::Values(-1.0, -0.75, -0.5, -0.1, 0.0, 0.1,
                                           0.5, 0.75, 1.0));

TEST(Sng, OutOfRangeValuesSaturate)
{
    Xoshiro256ss rng(5);
    EXPECT_DOUBLE_EQ(sngUnipolar(1.7, 4096, rng).unipolar(), 1.0);
    EXPECT_DOUBLE_EQ(sngUnipolar(-0.3, 4096, rng).unipolar(), 0.0);
    EXPECT_DOUBLE_EQ(sngBipolar(2.5, 4096, rng).bipolar(), 1.0);
    EXPECT_DOUBLE_EQ(sngBipolar(-9.0, 4096, rng).bipolar(), -1.0);
}

TEST(Sng, ErrorShrinksWithLength)
{
    // Stochastic representation error scales like 1/sqrt(L); check the
    // averaged absolute error drops when L is 16x longer.
    auto mean_abs_err = [](size_t len, uint64_t seed) {
        Xoshiro256ss rng(seed);
        SplitMix64 values(seed ^ 0x1111);
        double err = 0;
        const int trials = 200;
        for (int t = 0; t < trials; ++t) {
            double x = values.nextInRange(-1.0, 1.0);
            err += std::abs(sngBipolar(x, len, rng).bipolar() - x);
        }
        return err / trials;
    };
    double err_short = mean_abs_err(256, 21);
    double err_long = mean_abs_err(4096, 21);
    EXPECT_LT(err_long, err_short * 0.5);
}

TEST(Sng, LfsrStreamsWithSameSeedAreIdentical)
{
    Lfsr a(16, 7);
    Lfsr b(16, 7);
    EXPECT_EQ(sngBipolar(0.3, 2048, a), sngBipolar(0.3, 2048, b));
}

TEST(SngBank, StreamsAreReproduciblePerSeed)
{
    SngBank bank1(42);
    SngBank bank2(42);
    EXPECT_EQ(bank1.bipolar(0.25, 1024), bank2.bipolar(0.25, 1024));
}

TEST(SngBank, ConsecutiveStreamsAreIndependent)
{
    SngBank bank(42);
    Bitstream a = bank.bipolar(0.5, 1 << 15);
    Bitstream b = bank.bipolar(0.5, 1 << 15);
    EXPECT_NE(a, b);
    // Independent streams have near-zero stochastic cross-correlation.
    EXPECT_NEAR(scc(a, b), 0.0, 0.05);
}

TEST(SngBank, DifferentSeedsDiffer)
{
    SngBank bank1(1);
    SngBank bank2(2);
    EXPECT_NE(bank1.bipolar(0.0, 1024), bank2.bipolar(0.0, 1024));
}

TEST(Sng, SharedLfsrProducesMaximallyCorrelatedStreams)
{
    // Two SNGs driven by the *same* RNG sequence produce overlapping
    // streams (SCC -> +1): the pathology that motivates independent
    // seeds for multiplier operands.
    Lfsr a(16, 7);
    Lfsr b(16, 7);
    Bitstream s1 = sngUnipolar(0.5, 1 << 14, a);
    Bitstream s2 = sngUnipolar(0.7, 1 << 14, b);
    EXPECT_GT(scc(s1, s2), 0.9);
}

// ------------------------------------------------- word bodies vs twin

/** Lengths around the word boundaries and a few whole streams. */
const size_t kTwinLengths[] = {1, 3, 63, 64, 65, 100, 257, 1024};

/** Values covering threshold 0 (p <= 0), 1, mid-range, the rounding
 *  edge just below 1, threshold 65536 (p >= 1) and saturation. */
const double kTwinValues[] = {-0.1, 0.0, 1.0 / 65536, 0.5,
                              1.0 - 1e-9, 1.0, 1.1};

/** Word pattern the bodies must fully overwrite. */
constexpr uint64_t kJunk = 0xA5A5A5A5A5A5A5A5ull;

/** The bits of @p words past @p length are zero. */
void
expectTailZero(const uint64_t *words, size_t length)
{
    if (length % 64) {
        EXPECT_EQ(words[length / 64] >> (length % 64), 0u)
            << "length=" << length;
    }
}

/** Restores the SIMD dispatch a test toggles. */
class SngTwin : public ::testing::Test
{
  protected:
    void TearDown() override { simd::setLevel(was_level_); }

    const simd::Level was_level_ = simd::level();
};

TEST_F(SngTwin, ScalarWordBodyMatchesReference)
{
    for (size_t len : kTwinLengths)
        for (double p : kTwinValues)
            for (uint64_t seed = 1; seed <= 12; ++seed) {
                Xoshiro256ss ref_rng(seed), rng(seed);
                const Bitstream ref = referenceSngUnipolar(p, len, ref_rng);
                std::vector<uint64_t> words(ref.wordCount(), kJunk);
                sngUnipolarInto(p, len, rng, words.data());
                ASSERT_EQ(words, ref.words())
                    << "len=" << len << " p=" << p << " seed=" << seed;
                expectTailZero(words.data(), len);
                // Same draw count: the generators stay in lockstep.
                EXPECT_EQ(rng.next(), ref_rng.next());
                // The Bitstream wrapper is the same body.
                Xoshiro256ss wrap_rng(seed);
                EXPECT_EQ(sngUnipolar(p, len, wrap_rng), ref);
            }
}

TEST_F(SngTwin, Avx2FourStreamBodyMatchesReference)
{
    const size_t n_values = std::size(kTwinValues);
    for (simd::Level lv : simd::supportedLevels()) {
        simd::setLevel(lv);
        for (size_t len : kTwinLengths)
            for (uint64_t seed = 1; seed <= 3 * n_values; ++seed) {
                // Four streams with different values and seeds,
                // rotating through the value list.
                std::vector<Xoshiro256ss> rngs, ref_rngs;
                uint32_t thresholds[4];
                double ps[4];
                std::vector<std::vector<uint64_t>> words(
                    4, std::vector<uint64_t>((len + 63) / 64, kJunk));
                uint64_t *outs[4];
                for (size_t f = 0; f < 4; ++f) {
                    rngs.emplace_back(seed * 4 + f);
                    ref_rngs.emplace_back(seed * 4 + f);
                    ps[f] = kTwinValues[(seed + f) % n_values];
                    thresholds[f] = sngThreshold(ps[f]);
                    outs[f] = words[f].data();
                }
                const bool ran = simd::avx2SngUnipolar4(
                    thresholds, rngs.data(), len, outs);
                ASSERT_EQ(ran, simd::enabled());
                if (!ran)
                    continue;
                for (size_t f = 0; f < 4; ++f) {
                    const Bitstream ref =
                        referenceSngUnipolar(ps[f], len, ref_rngs[f]);
                    ASSERT_EQ(words[f], ref.words())
                        << "len=" << len << " p=" << ps[f]
                        << " seed=" << seed << " lane=" << f;
                    expectTailZero(words[f].data(), len);
                    EXPECT_EQ(rngs[f].next(), ref_rngs[f].next());
                }
            }
    }
}

TEST_F(SngTwin, BankBipolarIntoMatchesBipolarAndReference)
{
    // 11 streams: two four-stream groups plus three leftovers.
    std::vector<double> xs;
    for (size_t i = 0; i < 11; ++i)
        xs.push_back(2.0 * kTwinValues[i % std::size(kTwinValues)] - 1.0);
    for (simd::Level lv : simd::supportedLevels()) {
        simd::setLevel(lv);
        for (size_t len : kTwinLengths)
            for (uint64_t seed = 1; seed <= 6; ++seed) {
                // One spare word per slot: the body must not touch it.
                const size_t stride = (len + 63) / 64 + 1;
                std::vector<uint64_t> arena(xs.size() * stride, kJunk);
                SngBank bank(seed), plain(seed);
                bank.bipolarInto(xs, len, arena.data(), stride);
                SplitMix64 seeder(seed);
                for (size_t i = 0; i < xs.size(); ++i) {
                    const uint64_t *slot = arena.data() + i * stride;
                    const Bitstream via_bank = plain.bipolar(xs[i], len);
                    Xoshiro256ss ref_rng(seeder.next());
                    const Bitstream ref = referenceSngUnipolar(
                        (xs[i] + 1.0) / 2.0, len, ref_rng);
                    EXPECT_EQ(via_bank, ref);
                    ASSERT_TRUE(std::equal(ref.words().begin(),
                                           ref.words().end(), slot))
                        << "len=" << len << " seed=" << seed
                        << " stream=" << i << " level=" << simd::levelName(lv);
                    EXPECT_EQ(slot[stride - 1], kJunk);
                    expectTailZero(slot, len);
                }
                // Both banks consumed the same seeds.
                EXPECT_EQ(bank.bipolar(0.2, len), plain.bipolar(0.2, len));
                // The single-stream form is the same draw.
                std::vector<uint64_t> one((len + 63) / 64, kJunk);
                bank.bipolarInto(0.3, len, one.data());
                EXPECT_EQ(one, plain.bipolar(0.3, len).words());
            }
    }
}

} // namespace
} // namespace sc
} // namespace scdcnn
