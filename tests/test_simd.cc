/**
 * @file
 * Bit-exactness of the runtime-dispatched SIMD kernels against the
 * always-built scalar paths (the dispatch rule of DESIGN.md: the
 * scalar path is the oracle, every SIMD level must agree exactly).
 * Each test runs the same fused kernel at every level the host
 * supports (sc::simd::supportedLevels(): an AVX-512 host checks its
 * AVX2 bodies too) and compares against the scalar level; on hosts
 * without AVX2 only the scalar level runs and the tests degenerate to
 * self-comparison.
 */

#include <algorithm>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sc/bitstream.h"
#include "sc/counter.h"
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
    void TearDown() override { sc::simd::setLevel(was_level_); }

    const sc::simd::Level was_level_ = sc::simd::level();
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
    void TearDown() override { sc::simd::setLevel(was_level_); }

    const sc::simd::Level was_level_ = sc::simd::level();
};

TEST_P(SimdVsScalar, ProductCountsMultiMatch)
{
    // The vector folds against the scalar plane-insertion path of the
    // same kernel in its one-window form, over ragged lane counts and
    // word sub-ranges (the scalar path also covers the stream's partial
    // tail word at every level).
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
                    std::vector<uint16_t> scalar(block.lanes * len);
                    for (sc::simd::Level lv : sc::simd::supportedLevels()) {
                        sc::simd::setLevel(lv);
                        std::vector<uint16_t> out(block.lanes * len);
                        sc::fusedProductCountsMulti(ops.xv, block,
                                                    approximate, w0, n_words,
                                                    out.data(), len);
                        if (lv == sc::simd::Level::Scalar)
                            scalar = out;
                        else
                            EXPECT_EQ(out, scalar)
                                << "n=" << n << " len=" << len
                                << " filters=" << filters << " w0=" << w0
                                << " approx=" << approximate << " level="
                                << sc::simd::levelName(lv);
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimdVsScalar,
    ::testing::Combine(
        // Fan-ins around the parity cutoff, the 16-line Harley-Seal
        // block, and across plane counts.
        ::testing::Values(1, 3, 4, 5, 16, 17, 26, 151, 257),
        // Lengths around the 256-bit SIMD block and 64-bit word
        // boundaries: pure-scalar, pure-SIMD, and mixed tails.
        ::testing::Values(1, 63, 64, 255, 256, 257, 300, 511, 512,
                          1024)));

/** (taps, lanes): the batch fold in both emitter forms at every
 *  supported level against the scalar level. */
class FoldTwins
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
  protected:
    void TearDown() override { sc::simd::setLevel(was_level_); }

    const sc::simd::Level was_level_ = sc::simd::level();
};

TEST_P(FoldTwins, EveryLevelMatchesScalarInBothForms)
{
    // Taps around the Harley-Seal blocks (2-line pairs, the 16-line
    // block and its 8/4/2/1-line tails, the sixteens counter's carries)
    // and the served shapes (26, 201, 257); 1-4 real lanes; 1-8 images
    // of a batch-major window whose last tap is a shared stride-0
    // line; word ranges with an odd begin word, odd word counts (the
    // AVX-512 body's odd word takes the AVX2 body) and the partial
    // tail word. A 201- or 257-tap slice over 4+ words runs word-outer,
    // the smaller ones image-outer.
    auto [taps, lanes] = GetParam();
    constexpr size_t kImages = 8;
    const size_t n_words = 7;
    const size_t len = n_words * 64 - 9;
    sc::BatchStreamArena xs_arena;
    xs_arena.reset(taps - 1, kImages, len);
    sc::SngBank bank(77 * taps + lanes);
    sc::SplitMix64 vals(31 * taps + lanes);
    for (size_t t = 0; t + 1 < taps; ++t)
        for (size_t b = 0; b < kImages; ++b)
            xs_arena.assign(t, b, bank.bipolar(vals.nextInRange(-1, 1), len));
    const sc::Bitstream shared = bank.bipolar(0.5, len);
    std::vector<sc::BitstreamView> xs0;
    std::vector<size_t> strides;
    for (size_t t = 0; t + 1 < taps; ++t) {
        xs0.push_back(xs_arena.view(t, 0));
        strides.push_back(xs_arena.strideWords());
    }
    xs0.push_back(sc::BitstreamView(shared));
    strides.push_back(0);
    sc::InterleavedWeightArena weights;
    weights.reset(lanes, taps, len);
    for (size_t f = 0; f < lanes; ++f)
        for (size_t t = 0; t < taps; ++t)
            weights.assign(f, t, bank.bipolar(vals.nextInRange(-1, 1), len));
    const sc::WeightBlockView block = weights.block(0);
    ASSERT_EQ(block.lanes, lanes);

    const std::vector<std::vector<uint32_t>> image_sets = {
        {5}, {0, 2, 3}, {0, 1, 2, 3, 4, 5, 6, 7}};
    const std::pair<size_t, size_t> ranges[] = {
        {0, n_words}, {1, n_words}, {1, 4}, {2, 5}, {3, 4}};
    const size_t min_cap = sc::planeCapForTaps(taps);
    for (const auto &images : image_sets)
        for (const auto &[w0, w1] : ranges)
            for (size_t cap : {min_cap, std::min<size_t>(min_cap + 2, 13)})
                for (bool approximate : {false, true}) {
                    const size_t n_cycles = std::min(w1 * 64, len) - w0 * 64;
                    const size_t lane_stride = (w1 - w0) * 64;
                    const size_t image_stride =
                        sc::kFilterLanes * lane_stride;
                    // Pixel-minor rows: the images' lanes side by side.
                    const size_t plane_row_stride =
                        images.size() * sc::kFilterLanes;
                    std::vector<uint16_t> scalar_counts;
                    std::vector<uint64_t> scalar_planes;
                    for (sc::simd::Level lv : sc::simd::supportedLevels()) {
                        sc::simd::setLevel(lv);
                        std::vector<uint16_t> counts(
                            images.size() * image_stride, 0x5A5A);
                        sc::fusedProductCountsMultiBatch(
                            xs0, strides, images.data(), images.size(),
                            block, approximate, w0, w1, counts.data(),
                            lane_stride, image_stride);
                        std::vector<uint64_t> planes(
                            (w1 - w0) * (cap + 1) * plane_row_stride,
                            0xA5A5);
                        sc::fusedProductPlanesMultiBatch(
                            xs0, strides, images.data(), images.size(),
                            block, approximate, w0, w1, planes.data(), cap,
                            plane_row_stride, sc::kFilterLanes);
                        const std::string where =
                            "taps=" + std::to_string(taps) +
                            " lanes=" + std::to_string(lanes) +
                            " images=" + std::to_string(images.size()) +
                            " words=[" + std::to_string(w0) + "," +
                            std::to_string(w1) + ") cycles=" +
                            std::to_string(n_cycles) +
                            " cap=" + std::to_string(cap) +
                            " approx=" + std::to_string(approximate) +
                            " level=" + sc::simd::levelName(lv);
                        if (lv == sc::simd::Level::Scalar) {
                            scalar_counts = counts;
                            scalar_planes = planes;
                            continue;
                        }
                        EXPECT_EQ(counts, scalar_counts) << where;
                        EXPECT_EQ(planes, scalar_planes) << where;
                    }
                }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FoldTwins,
    ::testing::Combine(::testing::Values(2, 15, 16, 17, 26, 31, 33, 201,
                                         257),
                       ::testing::Values(1, 2, 3, 4)));

TEST_F(SimdTest, TileCountSumsMatchThePerCycleCounts)
{
    // The output layer's class scores: each pixel's count sum over a
    // one-input plane tile must equal the sum of its per-cycle counts
    // read bit by bit, for both parity readings, plane depths from one
    // to the fold's cap, and pixel counts inside, at and past the
    // four-pixel registers and the 16-pixel stride.
    sc::SplitMix64 vals(101);
    for (size_t plane_cap : {1, 7, 9, 13})
    for (bool parity : {true, false})
    for (size_t n_pixels : {1, 5, 16, 33}) {
        const size_t n_words = 3;
        const size_t stride = (n_pixels + 15) / 16 * 16;
        std::vector<uint64_t> planes(n_words * (plane_cap + 1) * stride);
        for (auto &w : planes)
            w = vals.next();
        const sc::simd::PlaneTile tile{.planes = planes.data(),
                                       .n_inputs = 1,
                                       .n_words = n_words,
                                       .plane_cap = plane_cap,
                                       .pixel_stride = stride,
                                       .parity = parity};
        std::vector<uint64_t> expect(n_pixels, 0);
        for (size_t px = 0; px < n_pixels; ++px)
            for (size_t q = 0; q < n_words; ++q)
                for (size_t b = 0; b < 64; ++b)
                    for (size_t p = 0; p < plane_cap; ++p)
                        expect[px] +=
                            ((tile.row(0, q, tile.digitRow(p))[px] >> b) & 1)
                            << p;
        for (sc::simd::Level lv : sc::simd::supportedLevels()) {
            sc::simd::setLevel(lv);
            std::vector<uint64_t> sums(n_pixels, ~uint64_t{0});
            sc::simd::tileCountSums(tile, n_pixels, sums.data());
            EXPECT_EQ(sums, expect)
                << "cap=" << plane_cap << " parity=" << parity
                << " pixels=" << n_pixels
                << " level=" << sc::simd::levelName(lv);
        }
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

TEST_F(SimdTest, SetLevelIsObservedAndCapped)
{
    sc::simd::setLevel(sc::simd::Level::Scalar);
    EXPECT_EQ(sc::simd::level(), sc::simd::Level::Scalar);
    EXPECT_FALSE(sc::simd::enabled());
    for (sc::simd::Level lv : sc::simd::supportedLevels()) {
        sc::simd::setLevel(lv);
        EXPECT_EQ(sc::simd::level(), lv);
        EXPECT_EQ(sc::simd::enabled(), lv != sc::simd::Level::Scalar);
    }
    // A level above what the host supports runs the host's best one.
    sc::simd::setLevel(sc::simd::Level::Avx512);
    EXPECT_EQ(sc::simd::level(), sc::simd::supportedLevel());
    EXPECT_EQ(sc::simd::supportedLevels().back(),
              sc::simd::supportedLevel());
    if (forcedScalarEnv()) {
        EXPECT_EQ(sc::simd::supportedLevel(), sc::simd::Level::Scalar);
    }
}

TEST_F(SimdTest, SupportedLevelFollowsTheCpuFeatures)
{
    // Avx512 needs AVX-512F, VL and BW (the tile kernels' 16-bit lane
    // masks): a part without BW runs Avx2. BITALG and VPOPCNTDQ are not
    // required, since both widths count bits by nibble lookup.
    sc::simd::Level expect = sc::simd::Level::Scalar;
#if defined(__x86_64__) && defined(__GNUC__)
    if (__builtin_cpu_supports("avx2"))
        expect = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512vl") &&
                         __builtin_cpu_supports("avx512bw")
                     ? sc::simd::Level::Avx512
                     : sc::simd::Level::Avx2;
#endif
    if (forcedScalarEnv())
        expect = sc::simd::Level::Scalar;
    EXPECT_EQ(sc::simd::supportedLevel(), expect);
}

TEST_F(SimdTest, ForcedScalarSurvivesRaisingTheLevel)
{
    // A forced-scalar run stays scalar: setLevel(Avx512), which the
    // kernel fixtures call to compare against the vector bodies,
    // honours SCDCNN_FORCE_SCALAR as the first dispatch decision does.
    const char *prev = std::getenv("SCDCNN_FORCE_SCALAR");
    const std::string saved = prev != nullptr ? prev : "";
    ASSERT_EQ(::setenv("SCDCNN_FORCE_SCALAR", "1", 1), 0);
    sc::simd::setLevel(sc::simd::Level::Scalar);
    sc::simd::setLevel(sc::simd::Level::Avx512);
    EXPECT_EQ(sc::simd::level(), sc::simd::Level::Scalar);
    EXPECT_FALSE(sc::simd::enabled());
    if (prev != nullptr)
        ::setenv("SCDCNN_FORCE_SCALAR", saved.c_str(), 1);
    else
        ::unsetenv("SCDCNN_FORCE_SCALAR");
}

} // namespace
} // namespace scdcnn
