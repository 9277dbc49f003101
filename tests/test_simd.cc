/**
 * @file
 * Bit-exactness of the runtime-dispatched AVX2 kernels against the
 * always-built scalar paths (the dispatch rule of DESIGN.md: the
 * scalar path is the oracle, AVX2 must agree exactly). Each test runs
 * the same fused kernel with SIMD enabled and disabled and compares;
 * on hosts without AVX2 both runs take the scalar path and the tests
 * degenerate to self-comparison.
 */

#include <algorithm>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sc/bitstream.h"
#include "sc/fused.h"
#include "sc/rng.h"
#include "sc/simd.h"
#include "sc/sng.h"

namespace scdcnn {
namespace {

/** Restore the processwide SIMD selection after each test. */
class SimdTest : public ::testing::Test
{
  protected:
    void TearDown() override { sc::simd::setEnabled(was_enabled_); }

    const bool was_enabled_ = sc::simd::enabled();
};

/** n random bipolar operand streams of length len. */
struct OperandSet
{
    std::vector<sc::Bitstream> xs;
    std::vector<sc::BitstreamView> xv;

    OperandSet(size_t n, size_t len, uint64_t seed)
    {
        sc::SngBank bank(seed);
        sc::SplitMix64 vals(seed ^ 0xABCD);
        for (size_t i = 0; i < n; ++i)
            xs.push_back(bank.bipolar(vals.nextInRange(-1, 1), len));
        xv = sc::toViews(xs);
    }
};

class SimdVsScalar
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
  protected:
    void TearDown() override { sc::simd::setEnabled(was_enabled_); }

    const bool was_enabled_ = sc::simd::enabled();
};

TEST_P(SimdVsScalar, ProductCountsMultiMatch)
{
    // The AVX2 filter-lane compressor tree against the scalar
    // plane-insertion path of the same kernel, over ragged lane counts
    // and word sub-ranges (the scalar path also covers the stream's
    // partial tail word when SIMD is on).
    auto [n, len] = GetParam();
    OperandSet ops(n, len, 8000 + n * 131 + len);
    for (size_t filters : {size_t{1}, size_t{4}, size_t{6}}) {
        sc::InterleavedWeightArena arena;
        arena.reset(filters, n, len);
        sc::SngBank bank(42 + filters);
        sc::SplitMix64 vals(7 * filters);
        for (size_t f = 0; f < filters; ++f)
            for (size_t t = 0; t < n; ++t)
                arena.assign(f, t,
                             bank.bipolar(vals.nextInRange(-1, 1), len));
        const size_t n_words = (len + 63) / 64;
        for (size_t g = 0; g < arena.groups(); ++g) {
            const sc::WeightBlockView block = arena.block(g);
            for (size_t w0 : {size_t{0}, std::min(n_words, size_t{3})}) {
                for (bool approximate : {false, true}) {
                    std::vector<uint16_t> with_simd(block.lanes * len);
                    std::vector<uint16_t> without(block.lanes * len);
                    sc::simd::setEnabled(true);
                    sc::fusedProductCountsMulti(ops.xv, block,
                                                approximate, w0, n_words,
                                                with_simd.data(), len);
                    sc::simd::setEnabled(false);
                    sc::fusedProductCountsMulti(ops.xv, block,
                                                approximate, w0, n_words,
                                                without.data(), len);
                    EXPECT_EQ(with_simd, without)
                        << "n=" << n << " len=" << len
                        << " filters=" << filters << " w0=" << w0
                        << " approx=" << approximate;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimdVsScalar,
    ::testing::Combine(
        // Fan-ins around the parity cutoff, the 16-line compressor
        // chunk, and across plane counts.
        ::testing::Values(1, 3, 4, 5, 16, 17, 26, 151, 257),
        // Lengths around the 256-bit SIMD block and 64-bit word
        // boundaries: pure-scalar, pure-SIMD, and mixed tails.
        ::testing::Values(1, 63, 64, 255, 256, 257, 300, 511, 512,
                          1024)));

TEST_F(SimdTest, SumU16MatchesScalar)
{
    sc::SplitMix64 vals(99);
    // Full uint16 range (top-bit values would break a signed madd
    // accumulation) and a length crossing the 64-bit flush boundary.
    for (size_t n : {0ul, 1ul, 15ul, 16ul, 31ul, 32ul, 100ul, 4096ul,
                     (1ul << 18) + 17ul}) {
        std::vector<uint16_t> values(n);
        for (auto &v : values)
            v = static_cast<uint16_t>(vals.nextBelow(65536));
        uint64_t expect = 0;
        for (uint16_t v : values)
            expect += v;
        sc::simd::setEnabled(true);
        EXPECT_EQ(sc::simd::avx2SumU16(values.data(), n), expect)
            << "n=" << n;
        sc::simd::setEnabled(false);
        EXPECT_EQ(sc::simd::avx2SumU16(values.data(), n), expect)
            << "n=" << n;
    }
}

/** Whether SCDCNN_FORCE_SCALAR forces the scalar paths: set to
 *  anything but empty or "0". */
bool
forcedScalarEnv()
{
    const char *v = std::getenv("SCDCNN_FORCE_SCALAR");
    return v != nullptr && *v != '\0' && std::string(v) != "0";
}

TEST_F(SimdTest, DisableIsObserved)
{
    sc::simd::setEnabled(false);
    EXPECT_FALSE(sc::simd::enabled());
    sc::simd::setEnabled(true);
    // Re-enabling only sticks where the CPU actually has AVX2 and the
    // scalar paths are not forced.
    EXPECT_EQ(sc::simd::enabled(),
              sc::simd::available() && !forcedScalarEnv());
}

TEST_F(SimdTest, ForcedScalarSurvivesReenabling)
{
    // A forced-scalar run stays scalar: setEnabled(true), which the
    // kernel fixtures call to compare against AVX2, honours
    // SCDCNN_FORCE_SCALAR as the first dispatch decision does.
    const char *prev = std::getenv("SCDCNN_FORCE_SCALAR");
    const std::string saved = prev != nullptr ? prev : "";
    ASSERT_EQ(::setenv("SCDCNN_FORCE_SCALAR", "1", 1), 0);
    sc::simd::setEnabled(false);
    sc::simd::setEnabled(true);
    EXPECT_FALSE(sc::simd::enabled());
    if (prev != nullptr)
        ::setenv("SCDCNN_FORCE_SCALAR", saved.c_str(), 1);
    else
        ::unsetenv("SCDCNN_FORCE_SCALAR");
}

} // namespace
} // namespace scdcnn
