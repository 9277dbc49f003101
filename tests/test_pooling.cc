/**
 * @file
 * Tests for the pooling function blocks (Section 4.2).
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "blocks/pooling.h"
#include "sc/fsm_batch.h"
#include "sc/rng.h"
#include "sc/simd.h"
#include "sc/sng.h"

namespace scdcnn {
namespace blocks {
namespace {

std::vector<sc::Bitstream>
bipolarStreams(const std::vector<double> &values, size_t len, uint64_t seed)
{
    sc::SngBank bank(seed);
    std::vector<sc::Bitstream> out;
    for (double v : values)
        out.push_back(bank.bipolar(v, len));
    return out;
}

TEST(AveragePooling, FourInputMeanViaMux)
{
    auto ins = bipolarStreams({0.8, 0.4, -0.2, -0.6}, 1 << 15, 1);
    sc::Xoshiro256ss sel(2);
    EXPECT_NEAR(averagePooling(ins, sel).bipolar(), 0.1, 0.03);
}

TEST(AveragePooling, SingleInputPassesValueThrough)
{
    auto ins = bipolarStreams({0.5}, 1 << 14, 3);
    sc::Xoshiro256ss sel(4);
    EXPECT_NEAR(averagePooling(ins, sel).bipolar(), 0.5, 0.03);
}

TEST(HardwareMaxPooling, PicksDominantStream)
{
    // One clearly-largest input: output must track it closely.
    auto ins = bipolarStreams({0.9, -0.5, -0.7, -0.1}, 4096, 5);
    sc::Bitstream out = HardwareMaxPooling::compute(ins, 16);
    EXPECT_NEAR(out.bipolar(), 0.9, 0.1);
}

TEST(HardwareMaxPooling, UnderCountsSlightly)
{
    // Section 4.4: the block's output is in most cases slightly *less*
    // than the true maximum (segment mispredictions only hurt).
    double sc_sum = 0, true_sum = 0;
    for (int t = 0; t < 30; ++t) {
        sc::SplitMix64 vals(100 + t);
        std::vector<double> v = {vals.nextInRange(-1, 1),
                                 vals.nextInRange(-1, 1),
                                 vals.nextInRange(-1, 1),
                                 vals.nextInRange(-1, 1)};
        auto ins = bipolarStreams(v, 2048, 200 + t);
        sc_sum += HardwareMaxPooling::compute(ins, 16).bipolar();
        // Reference max over the *encoded* streams to isolate the
        // pooling error from SNG noise.
        double best = -1;
        for (const auto &s : ins)
            best = std::max(best, s.bipolar());
        true_sum += best;
    }
    EXPECT_LE(sc_sum, true_sum);
    EXPECT_NEAR(sc_sum / 30, true_sum / 30, 0.15);
}

/** Table 4 shape: deviation shrinks as streams lengthen. */
class MaxPoolingLength : public ::testing::TestWithParam<int>
{
  public:
    static double meanDeviation(size_t n_inputs, size_t len)
    {
        double dev = 0;
        const int trials = 25;
        for (int t = 0; t < trials; ++t) {
            sc::SplitMix64 vals(300 + t);
            std::vector<double> v;
            for (size_t i = 0; i < n_inputs; ++i)
                v.push_back(vals.nextInRange(-1, 1));
            auto ins = bipolarStreams(v, len, 400 + t);
            double got =
                HardwareMaxPooling::compute(ins, 16).bipolar();
            double best = -1;
            for (const auto &s : ins)
                best = std::max(best, s.bipolar());
            dev += std::abs(got - best);
        }
        return dev / trials;
    }
};

TEST_P(MaxPoolingLength, DeviationWithinTable4Band)
{
    const int len = GetParam();
    double dev = meanDeviation(4, len);
    // Table 4 reports 0.059..0.127 for 4 inputs over 128..512 bits.
    EXPECT_LT(dev, 0.25) << "L=" << len;
}

INSTANTIATE_TEST_SUITE_P(Lengths, MaxPoolingLength,
                         ::testing::Values(128, 256, 384, 512));

TEST(MaxPoolingLength, DeviationShrinksWithLength)
{
    EXPECT_LT(MaxPoolingLength::meanDeviation(4, 2048),
              MaxPoolingLength::meanDeviation(4, 128));
}

TEST(HardwareMaxPooling, WorksForNineAndSixteenInputs)
{
    // Table 4 also evaluates 3x3 and 4x4 windows.
    for (size_t n : {9u, 16u}) {
        double dev = MaxPoolingLength::meanDeviation(n, 512);
        EXPECT_LT(dev, 0.3) << "inputs=" << n;
    }
}

TEST(HardwareMaxPooling, FirstSegmentUsesRequestedChoice)
{
    // Input 1 is all-ones, input 0 all-zeros; choosing 0 first leaves
    // the first segment empty, and the selector must switch to input 1
    // for every later segment.
    std::vector<sc::Bitstream> ins = {sc::constantStream(false, 64),
                                      sc::constantStream(true, 64)};
    sc::Bitstream out = HardwareMaxPooling::compute(ins, 16, 0);
    EXPECT_EQ(out.countOnes(0, 16), 0u);
    EXPECT_EQ(out.countOnes(16, 64), 48u);
}

TEST(HardwareMaxPooling, SegmentNotDividingLengthHandled)
{
    auto ins = bipolarStreams({0.3, 0.7}, 100, 7); // 100 % 16 != 0
    sc::Bitstream out = HardwareMaxPooling::compute(ins, 16);
    EXPECT_EQ(out.length(), 100u);
}

TEST(HardwareMaxPooling, ArgmaxStreamFindsLargest)
{
    auto ins = bipolarStreams({-0.2, 0.9, 0.1}, 4096, 8);
    EXPECT_EQ(HardwareMaxPooling::argmaxStream(ins), 1u);
}

TEST(BinaryAveragePooling, TruncatesFraction)
{
    // Paper example: mean(2,3,4,5) = 3.5 stored as 3.
    std::vector<std::vector<uint16_t>> counts = {
        {2}, {3}, {4}, {5}};
    auto out = binaryAveragePooling(counts);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 3);
}

TEST(BinaryAveragePooling, ExactWhenDivisible)
{
    std::vector<std::vector<uint16_t>> counts = {
        {2, 8}, {2, 8}, {2, 0}, {2, 0}};
    auto out = binaryAveragePooling(counts);
    EXPECT_EQ(out[0], 2);
    EXPECT_EQ(out[1], 4);
}

TEST(BinaryMaxPooling, TracksLargestCountSequence)
{
    // Sequence 0 is uniformly larger; after the first segment the
    // selector must lock onto it.
    std::vector<std::vector<uint16_t>> counts(2);
    for (int i = 0; i < 64; ++i) {
        counts[0].push_back(10);
        counts[1].push_back(2);
    }
    auto out = BinaryMaxPooling::compute(counts, 16, /*first=*/1);
    // First segment forwarded the wrong row; the rest must be 10s.
    for (size_t i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], 2);
    for (size_t i = 16; i < 64; ++i)
        EXPECT_EQ(out[i], 10);
}

TEST(BinaryMaxPooling, SelectsPerSegmentNotPerCycle)
{
    // Within a segment the selected row is forwarded even on cycles
    // where another row momentarily exceeds it.
    std::vector<std::vector<uint16_t>> counts(2);
    counts[0] = {5, 0, 5, 5, 5, 5, 5, 5};
    counts[1] = {1, 9, 1, 1, 1, 1, 1, 1};
    auto out = BinaryMaxPooling::compute(counts, 4, 0);
    // Row 0 wins segment 1 (sum 15 vs 12), so segment 2 is row 0
    // verbatim including any dips.
    EXPECT_EQ(out[4], 5);
    EXPECT_EQ(out[5], 5);
}

TEST(BinaryMaxPooling, ApproximatesTrueMaxOnStochasticCounts)
{
    // Counts derived from streams with distinct values: the pooled
    // sum should be close to the largest input's total.
    sc::SngBank bank(9);
    std::vector<std::vector<uint16_t>> counts;
    std::vector<double> sums;
    for (double v : {0.6, -0.2, 0.1, -0.5}) {
        sc::Bitstream s = bank.bipolar(v, 1024);
        std::vector<uint16_t> c(1024);
        for (size_t i = 0; i < 1024; ++i)
            c[i] = s.get(i);
        double total = 0;
        for (auto b : c)
            total += b;
        sums.push_back(total);
        counts.push_back(std::move(c));
    }
    auto pooled = BinaryMaxPooling::compute(counts, 16);
    double pooled_sum = 0;
    for (auto v : pooled)
        pooled_sum += v;
    double best = *std::max_element(sums.begin(), sums.end());
    EXPECT_NEAR(pooled_sum, best, best * 0.12);
    EXPECT_LE(pooled_sum, best + 1e-9);
}

/**
 * Twin-contract equivalence: the word-parallel max pooling blocks
 * (the Range kernels run once over the whole stream) must be
 * bit-exact with their bit-serial/element-serial references for both
 * counter readings and segment lengths not dividing L.
 */
class MaxPoolFusedVsReference
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
};

TEST_P(MaxPoolFusedVsReference, StreamsBitExact)
{
    auto [len, seg] = GetParam();
    sc::SplitMix64 vals(800 + len * 7 + seg);
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<double> v;
        for (int i = 0; i < 4; ++i)
            v.push_back(vals.nextInRange(-1, 1));
        auto ins =
            bipolarStreams(v, len, 900 + len + seg * 13 + rep);
        const auto views = sc::toViews(ins);
        for (bool accumulate : {false, true}) {
            EXPECT_EQ(HardwareMaxPooling::compute(ins, seg,
                                                  rep % ins.size(),
                                                  accumulate),
                      maxPoolStreamsReference(views, seg,
                                              rep % ins.size(),
                                              accumulate))
                << "len=" << len << " seg=" << seg
                << " accumulate=" << accumulate;
        }
    }
}

TEST_P(MaxPoolFusedVsReference, BinaryCountsBitExact)
{
    auto [len, seg] = GetParam();
    sc::SplitMix64 vals(1000 + len * 7 + seg);
    std::vector<std::vector<uint16_t>> counts(4);
    for (auto &c : counts) {
        c.resize(len);
        for (auto &x : c)
            x = static_cast<uint16_t>(vals.nextBelow(152));
    }
    for (bool accumulate : {false, true}) {
        EXPECT_EQ(BinaryMaxPooling::compute(counts, seg, 1, accumulate),
                  binaryMaxPoolReference(counts, seg, 1, accumulate))
            << "len=" << len << " seg=" << seg
            << " accumulate=" << accumulate;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MaxPoolFusedVsReference,
    ::testing::Combine(
        // Lengths across word boundaries.
        ::testing::Values(1, 63, 64, 65, 100, 257, 1024),
        // Segment lengths dividing and not dividing L, including
        // one spanning multiple words and one longer than L.
        ::testing::Values(1, 3, 16, 17, 100, 2048)));

/** Word-range partitions (in words) used by the range-kernel tests:
 *  one that divides a 5-word stream, one that does not, whole-stream. */
const size_t kRangePartitions[] = {1, 2, 3, 100};

TEST(MaxPoolRange, CarriedStateMatchesWholeStreamKernel)
{
    // Streaming the Figure 8 selector range by range with a carried
    // MaxPoolCarryState must be bit-exact with the whole-stream
    // reference — including pooling segments straddling range boundaries
    // (segment_len 24 never aligns with 64-cycle words).
    const size_t len = 300;
    const size_t n_words = (len + 63) / 64;
    auto ins = bipolarStreams({0.3, 0.25, -0.2, 0.35}, len, 91);
    const auto views = sc::toViews(ins);
    for (size_t segment_len : {size_t{16}, size_t{24}, size_t{7}}) {
        for (bool accumulate : {false, true}) {
            const sc::Bitstream whole = maxPoolStreamsReference(
                views, segment_len, 0, accumulate);
            for (size_t seg_words : kRangePartitions) {
                std::vector<uint64_t> stitched(n_words, 0);
                MaxPoolCarryState state;
                state.reset(ins.size(), 0);
                for (size_t w0 = 0; w0 < n_words; w0 += seg_words) {
                    const size_t w1 = std::min(w0 + seg_words, n_words);
                    const size_t n_cycles =
                        std::min(w1 * 64, len) - w0 * 64;
                    const uint64_t *ptrs[4];
                    for (size_t k = 0; k < ins.size(); ++k)
                        ptrs[k] = ins[k].words().data() + w0;
                    maxPoolStreamsRange(ptrs, ins.size(), w0 * 64,
                                        n_cycles, segment_len, accumulate,
                                        state.view(), stitched.data() + w0);
                }
                EXPECT_EQ(stitched, whole.words())
                    << "segment_len=" << segment_len
                    << " accumulate=" << accumulate
                    << " seg_words=" << seg_words;
            }
        }
    }
}

TEST(BinaryMaxPoolRange, CarriedStateMatchesWholeSequenceKernel)
{
    const size_t len = 300;
    const size_t n_words = (len + 63) / 64;
    sc::SplitMix64 vals(17);
    std::vector<std::vector<uint16_t>> counts(4,
                                              std::vector<uint16_t>(len));
    for (auto &seq : counts)
        for (auto &c : seq)
            c = static_cast<uint16_t>(vals.nextBelow(27));
    for (size_t segment_len : {size_t{16}, size_t{24}, size_t{7}}) {
        for (bool accumulate : {false, true}) {
            const std::vector<uint16_t> whole = binaryMaxPoolReference(
                counts, segment_len, 0, accumulate);
            for (size_t seg_words : kRangePartitions) {
                std::vector<uint16_t> stitched(len, 0xFFFF);
                MaxPoolCarryState state;
                state.reset(counts.size(), 0);
                for (size_t w0 = 0; w0 < n_words; w0 += seg_words) {
                    const size_t w1 = std::min(w0 + seg_words, n_words);
                    const size_t n_cycles =
                        std::min(w1 * 64, len) - w0 * 64;
                    const uint16_t *ptrs[4];
                    for (size_t k = 0; k < counts.size(); ++k)
                        ptrs[k] = counts[k].data() + w0 * 64;
                    binaryMaxPoolRange(ptrs, counts.size(), w0 * 64,
                                       n_cycles, segment_len, accumulate,
                                       state.view(),
                                       stitched.data() + w0 * 64);
                }
                EXPECT_EQ(stitched, whole)
                    << "segment_len=" << segment_len
                    << " accumulate=" << accumulate
                    << " seg_words=" << seg_words;
            }
        }
    }
}

TEST(AveragePoolingRange, CarriedGeneratorMatchesMuxAdd)
{
    const size_t len = 300;
    const size_t n_words = (len + 63) / 64;
    auto ins = bipolarStreams({0.5, -0.5, 0.1, 0.0}, len, 33);
    sc::Xoshiro256ss whole_rng(1234);
    const sc::Bitstream whole = averagePooling(ins, whole_rng);
    for (size_t seg_words : kRangePartitions) {
        std::vector<uint64_t> stitched(n_words, ~uint64_t{0});
        sc::Xoshiro256ss rng(1234);
        for (size_t w0 = 0; w0 < n_words; w0 += seg_words) {
            const size_t w1 = std::min(w0 + seg_words, n_words);
            const size_t n_cycles = std::min(w1 * 64, len) - w0 * 64;
            const uint64_t *ptrs[4];
            for (size_t k = 0; k < ins.size(); ++k)
                ptrs[k] = ins[k].words().data() + w0;
            averagePoolingRange(ptrs, ins.size(), n_cycles, rng,
                                stitched.data() + w0);
        }
        EXPECT_EQ(stitched, whole.words()) << "seg_words " << seg_words;
        // The generator must land in the same state as muxAdd's.
        sc::Xoshiro256ss check(1234);
        EXPECT_EQ(averagePooling(ins, check), whole);
        EXPECT_EQ(rng.next(), check.next());
    }
}

TEST(SignedAveragePoolingRange, PointerVariantMatchesVectorVariant)
{
    const size_t len = 130;
    sc::SplitMix64 vals(5);
    std::vector<std::vector<uint16_t>> counts(4,
                                              std::vector<uint16_t>(len));
    for (auto &seq : counts)
        for (auto &c : seq)
            c = static_cast<uint16_t>(vals.nextBelow(17));
    const std::vector<int> whole = binaryAveragePoolingSigned(counts, 16);
    std::vector<int> ranged(len);
    const uint16_t *ptrs[4];
    for (size_t k = 0; k < counts.size(); ++k)
        ptrs[k] = counts[k].data() + 64;
    binaryAveragePoolingSignedRange(ptrs, 4, 16, len - 64,
                                    ranged.data() + 64);
    for (size_t k = 0; k < counts.size(); ++k)
        ptrs[k] = counts[k].data();
    binaryAveragePoolingSignedRange(ptrs, 4, 16, 64, ranged.data());
    EXPECT_EQ(ranged, whole);
}

/** Restore the processwide SIMD selection after each test. */
class BatchKernel : public ::testing::Test
{
  protected:
    void TearDown() override { sc::simd::setLevel(was_level_); }

    const sc::simd::Level was_level_ = sc::simd::level();
};

/** Window contents of the plane-pooling oracle test. */
enum class Windows
{
    Random,    //!< independent random counts per window
    Identical, //!< every window the same: window 0 wins every tie
    ZeroTied,  //!< window 0 all zero, the rest identical: window 1 wins
    Zero,      //!< all-zero windows: the selection goes to window 0
};

/**
 * Random canonical counts (plane_cap bits) and leading-lines parity bits
 * per (pixel, window) over kLen cycles, zero past the stream end; the
 * per-cycle counts a consumer with the same parity flag sees, and the
 * pixel-minor plane tile of any word-aligned range of them.
 */
struct PlaneWindows
{
    static constexpr size_t kLen = 200; // 4 words, 8-cycle tail
    static constexpr size_t kWords = (kLen + 63) / 64;

    size_t n_pixels, n_inputs, plane_cap, stride;
    bool parity;
    std::vector<std::vector<uint16_t>> raw;    //!< [pixel * inputs + k]
    std::vector<std::vector<uint8_t>> lsb;     //!< same indexing
    std::vector<std::vector<uint16_t>> counts; //!< what is pooled

    PlaneWindows(size_t n_pixels_, size_t n_inputs_, size_t plane_cap_,
                 bool parity_, sc::SplitMix64 &vals)
        : n_pixels(n_pixels_), n_inputs(n_inputs_), plane_cap(plane_cap_),
          // One spare chunk of lanes past the pixels.
          stride((n_pixels_ + 15) / 16 * 16 + 16), parity(parity_),
          raw(n_pixels_ * n_inputs_, std::vector<uint16_t>(kWords * 64)),
          lsb(raw.size(), std::vector<uint8_t>(kWords * 64)),
          counts(raw.size(), std::vector<uint16_t>(kWords * 64))
    {
        for (size_t b = 0; b < raw.size(); ++b)
            for (size_t i = 0; i < kLen; ++i) {
                raw[b][i] = static_cast<uint16_t>(
                    vals.next() & ((1u << plane_cap) - 1));
                lsb[b][i] = static_cast<uint8_t>(vals.next() & 1);
            }
        recount();
    }

    void recount()
    {
        for (size_t b = 0; b < raw.size(); ++b)
            for (size_t i = 0; i < kLen; ++i)
                counts[b][i] =
                    parity ? static_cast<uint16_t>((raw[b][i] & ~1u) |
                                                   lsb[b][i])
                           : raw[b][i];
    }

    /** Overwrite window @p k of every pixel with window @p from's
     *  contents, or with zeros when @p from is SIZE_MAX. */
    void copyWindow(size_t k, size_t from)
    {
        for (size_t b = k; b < raw.size(); b += n_inputs) {
            if (from == SIZE_MAX) {
                std::fill(raw[b].begin(), raw[b].end(), 0);
                std::fill(lsb[b].begin(), lsb[b].end(), 0);
            } else {
                raw[b] = raw[b - k + from];
                lsb[b] = lsb[b - k + from];
            }
        }
        recount();
    }

    /** The plane tile of words [w0, w0 + n_words), pixel lanes past
     *  n_pixels filled with junk counts. */
    std::vector<uint64_t> tile(size_t w0, size_t n_words,
                               sc::SplitMix64 &vals) const
    {
        const size_t rows = plane_cap + 1;
        std::vector<uint64_t> t(n_inputs * n_words * rows * stride, 0);
        for (size_t k = 0; k < n_inputs; ++k)
            for (size_t q = 0; q < n_words; ++q)
                for (size_t px = 0; px < stride; ++px) {
                    uint64_t *row =
                        t.data() + ((k * n_words + q) * rows) * stride + px;
                    for (size_t bit = 0; bit < 64; ++bit) {
                        const size_t i = (w0 + q) * 64 + bit;
                        uint64_t c = vals.next() & ((1u << plane_cap) - 1);
                        uint64_t l = vals.next() & 1;
                        if (px < n_pixels) {
                            c = raw[px * n_inputs + k][i];
                            l = lsb[px * n_inputs + k][i];
                        }
                        for (size_t p = 0; p < plane_cap; ++p)
                            row[p * stride] |= ((c >> p) & 1) << bit;
                        row[plane_cap * stride] |= l << bit;
                    }
                }
        return t;
    }
};

TEST_F(BatchKernel, PlaneAverageMatchesCountAverage)
{
    // binaryAveragePoolingSignedPlanes expands each window's counts from
    // a pixel-minor plane tile (sc::simd::tileCounts) and takes their
    // signed mean; the counts must be the (parity-substituted) counts
    // and the mean binaryAveragePoolingSigned's over them: both parity
    // readings, plane depths on both sides of the counts transpose's
    // one-byte split, a pixel in the first chunk and one past it, every
    // SIMD level, over a word-aligned range split whose second range
    // ends in a partial zero-masked tail word.
    constexpr size_t kLen = PlaneWindows::kLen;
    sc::SplitMix64 vals(0xA7E5);
    for (size_t plane_cap : {3, 8, 9, 13})
    for (size_t n_pixels : {1, 17})
    for (bool parity : {true, false})
    for (sc::simd::Level lv : sc::simd::supportedLevels()) {
        sc::simd::setLevel(lv);
        const PlaneWindows in(n_pixels, 4, plane_cap, parity, vals);
        const size_t n = (size_t{1} << plane_cap) / 2;
        std::vector<std::vector<int>> got(n_pixels, std::vector<int>(kLen));
        for (size_t r0 : {0, 128}) {
            const size_t nc = std::min(kLen, r0 + 128) - r0;
            const size_t n_words = (nc + 63) / 64;
            const std::vector<uint64_t> planes =
                in.tile(r0 / 64, n_words, vals);
            const sc::simd::PlaneTile tile{.planes = planes.data(),
                                           .n_inputs = 4,
                                           .n_words = n_words,
                                           .plane_cap = plane_cap,
                                           .pixel_stride = in.stride,
                                           .parity = parity};
            std::vector<uint16_t> scratch(4 * n_words * 64);
            for (size_t j = 0; j < n_pixels; ++j) {
                binaryAveragePoolingSignedPlanes(tile, j, n, nc,
                                                 scratch.data(),
                                                 got[j].data() + r0);
                for (size_t k = 0; k < 4; ++k)
                    EXPECT_TRUE(std::equal(
                        scratch.begin() + k * n_words * 64,
                        scratch.begin() + k * n_words * 64 + nc,
                        in.counts[j * 4 + k].begin() + r0))
                        << "cap=" << plane_cap << " parity=" << parity
                        << " level=" << sc::simd::levelName(lv)
                        << " pixel=" << j << " window=" << k
                        << " range=" << r0;
            }
        }
        for (size_t j = 0; j < n_pixels; ++j) {
            std::vector<std::vector<uint16_t>> windows;
            for (size_t k = 0; k < 4; ++k)
                windows.emplace_back(in.counts[j * 4 + k].begin(),
                                     in.counts[j * 4 + k].begin() + kLen);
            EXPECT_EQ(got[j], binaryAveragePoolingSigned(windows, n))
                << "cap=" << plane_cap << " parity=" << parity
                << " level=" << sc::simd::levelName(lv) << " pixel=" << j;
        }
    }
}

TEST_F(BatchKernel, PlanePoolMatchesCountPoolAcrossShapes)
{
    // binaryMaxPoolPlanesBatch over a pixel-minor plane tile must be
    // bit-exact with binaryMaxPoolRange over the (parity-substituted)
    // counts: the winners' groups forward the twin's pooled counts, and
    // the carried selector state agrees. And the tile Btanh over those
    // winners matches the resumable single-stream Btanh over the twin's
    // pooled counts. Across the 16-cycle-grid path and the general path,
    // plane depths up to the grid's bound, pool widths, pixel counts
    // (1 and 3: one partial chunk; 17: a 32-pixel chunk at Avx512; 33: a
    // 32-pixel chunk and a 16-pixel one), segment lengths on and off the
    // group grid, both counter readings, every SIMD level, tied and
    // all-zero windows, from a non-zero first selection, carried over a
    // word-aligned range split with a partial zero-masked tail word.
    constexpr size_t kLen = PlaneWindows::kLen;
    sc::SplitMix64 vals(0xB007);
    for (size_t plane_cap : {3, 5, 9, 12})
    for (size_t n_inputs : {2, 4})
    for (size_t n_pixels : {1, 3, 17, 33})
    for (Windows windows : {Windows::Random, Windows::Identical,
                            Windows::ZeroTied, Windows::Zero})
    for (size_t segment_len : {16, 48, 10})
    for (bool parity : {true, false})
    for (bool accumulate : {true, false})
    for (sc::simd::Level lv : sc::simd::supportedLevels()) {
        sc::simd::setLevel(lv);
        PlaneWindows in(n_pixels, n_inputs, plane_cap, parity, vals);
        if (windows == Windows::Identical)
            for (size_t k = 1; k < n_inputs; ++k)
                in.copyWindow(k, 0);
        if (windows == Windows::ZeroTied) {
            in.copyWindow(0, SIZE_MAX);
            for (size_t k = 2; k < n_inputs; ++k)
                in.copyWindow(k, 1);
        }
        if (windows == Windows::Zero)
            for (size_t k = 0; k < n_inputs; ++k)
                in.copyWindow(k, SIZE_MAX);

        const size_t S = in.stride;
        const sc::BtanhBatchTable btanh(12, (1u << plane_cap) / 2);
        std::vector<uint64_t> counters(4 * S, 0);
        std::vector<uint32_t> selected(S, 0);
        std::vector<uint16_t> fsm(S, btanh.initialState());
        std::vector<MaxPoolCarryState> st_c(n_pixels);
        std::vector<uint16_t> fsm_c(n_pixels, btanh.initialState());
        std::vector<std::vector<uint16_t>> out_p(n_pixels), out_c(n_pixels);
        std::vector<std::vector<uint64_t>> act_p(n_pixels), act_c(n_pixels);
        for (size_t j = 0; j < n_pixels; ++j) {
            // The first segment forwards the last window.
            selected[j] = static_cast<uint32_t>(n_inputs - 1);
            st_c[j].reset(n_inputs, n_inputs - 1);
            out_p[j].assign(PlaneWindows::kWords * 64, 0);
            out_c[j].assign(PlaneWindows::kWords * 64, 0);
            act_p[j].assign(PlaneWindows::kWords, 0);
            act_c[j].assign(PlaneWindows::kWords, 0);
        }
        // Two ranges: [0, 128) and [128, 200).
        for (size_t r0 : {0, 128}) {
            const size_t nc = std::min(kLen, r0 + 128) - r0;
            const size_t n_words = (nc + 63) / 64;
            const std::vector<uint64_t> planes =
                in.tile(r0 / 64, n_words, vals);
            const sc::simd::PlaneTile tile{.planes = planes.data(),
                                           .n_inputs = n_inputs,
                                           .n_words = n_words,
                                           .plane_cap = plane_cap,
                                           .pixel_stride = S,
                                           .parity = parity};
            std::vector<uint8_t> winners(n_words * S * 4);
            std::vector<uint64_t> forwarded;
            const sc::simd::PlaneTile pooled = binaryMaxPoolPlanesBatch(
                tile, n_pixels, r0, nc, segment_len, accumulate,
                {counters.data(), selected.data()}, winners.data(),
                forwarded);
            std::vector<uint64_t> acts(n_words * S);
            btanh.transformTile(pooled, winners.data(), n_pixels, nc,
                                fsm.data(), acts.data());
            for (size_t j = 0; j < n_pixels; ++j) {
                for (size_t i = 0; i < nc; ++i) {
                    const size_t q = i / 64;
                    const size_t w = winners[(q * S + j) * 4 + i % 64 / 16];
                    uint16_t c = 0;
                    for (size_t p = 0; p < plane_cap; ++p)
                        c |= static_cast<uint16_t>(
                            ((pooled.row(w, q, pooled.digitRow(p))[j] >>
                              (i % 64)) &
                             1)
                            << p);
                    out_p[j][r0 + i] = c;
                }
                for (size_t q = 0; q < n_words; ++q)
                    act_p[j][r0 / 64 + q] = acts[q * S + j];
                std::vector<const uint16_t *> cp;
                for (size_t k = 0; k < n_inputs; ++k)
                    cp.push_back(in.counts[j * n_inputs + k].data() + r0);
                binaryMaxPoolRange(cp.data(), n_inputs, r0, nc, segment_len,
                                   accumulate, st_c[j].view(),
                                   out_c[j].data() + r0);
                btanh.transformWords(out_c[j].data() + r0, nc,
                                     act_c[j].data() + r0 / 64, &fsm_c[j]);
            }
        }
        for (size_t j = 0; j < n_pixels; ++j) {
            const std::string where =
                "cap=" + std::to_string(plane_cap) +
                " inputs=" + std::to_string(n_inputs) +
                " pixels=" + std::to_string(n_pixels) +
                " windows=" + std::to_string(static_cast<int>(windows)) +
                " seg=" + std::to_string(segment_len) +
                " parity=" + std::to_string(parity) +
                " acc=" + std::to_string(accumulate) +
                " level=" + sc::simd::levelName(lv) +
                " pixel=" + std::to_string(j);
            EXPECT_TRUE(std::equal(out_p[j].begin(), out_p[j].begin() + kLen,
                                   out_c[j].begin()))
                << where;
            EXPECT_EQ(act_p[j], act_c[j]) << where;
            EXPECT_EQ(fsm[j], fsm_c[j]) << where;
            EXPECT_EQ(selected[j], st_c[j].selected) << where;
            for (size_t k = 0; k < n_inputs; ++k)
                EXPECT_EQ(counters[k * S + j], st_c[j].counters[k])
                    << where << " input=" << k;
            // The tie rule itself, not just agreement with the twin.
            if (windows == Windows::Identical || windows == Windows::Zero) {
                EXPECT_EQ(selected[j], 0u) << where;
            } else if (windows == Windows::ZeroTied) {
                EXPECT_EQ(selected[j], 1u) << where;
            }
        }
    }
}

} // namespace
} // namespace blocks
} // namespace scdcnn
