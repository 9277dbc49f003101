/**
 * @file
 * Tests for the fused word-parallel kernels (sc/fused.h) and the
 * block-level API built on them against their bit-serial and
 * materialized-product oracles, and for the determinism contract of
 * the batched network engine: same seed => same predictions, for any
 * engine mode and any thread count.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocks/inner_product.h"
#include "common/thread_pool.h"
#include "core/sc_network.h"
#include "nn/dataset.h"
#include "nn/network.h"
#include "sc/counter.h"
#include "sc/fused.h"
#include "sc/ops.h"
#include "sc/simd.h"
#include "sc/sng.h"

namespace scdcnn {
namespace {

/** Random operand pair set: n streams of length len each. */
struct OperandSet
{
    std::vector<sc::Bitstream> xs, ws;
    std::vector<const sc::Bitstream *> xp, wp;

    OperandSet(size_t n, size_t len, uint64_t seed)
    {
        sc::SngBank bank(seed);
        sc::SplitMix64 vals(seed ^ 0xABCD);
        for (size_t i = 0; i < n; ++i) {
            xs.push_back(bank.bipolar(vals.nextInRange(-1, 1), len));
            ws.push_back(bank.bipolar(vals.nextInRange(-1, 1), len));
        }
        for (size_t i = 0; i < n; ++i) {
            xp.push_back(&xs[i]);
            wp.push_back(&ws[i]);
        }
    }
};

/** Naive per-bit column counts of @p lines: exact, or with the APC's
 *  LSB replaced by the parity of the leading lines. */
std::vector<uint16_t>
naiveCounts(const std::vector<sc::Bitstream> &lines, bool approximate)
{
    const size_t parity_lines = std::min(
        sc::ApproxParallelCounter::kLsbParityLines, lines.size());
    std::vector<uint16_t> out(lines[0].length());
    for (size_t i = 0; i < out.size(); ++i) {
        uint16_t c = 0;
        uint16_t lsb = 0;
        for (size_t k = 0; k < lines.size(); ++k) {
            const uint16_t bit = lines[k].get(i) ? 1 : 0;
            c = static_cast<uint16_t>(c + bit);
            if (k < parity_lines)
                lsb ^= bit;
        }
        if (approximate)
            c = static_cast<uint16_t>((c & ~uint16_t{1}) | lsb);
        out[i] = c;
    }
    return out;
}

/** The block-level API (one-filter callers of the filter-blocked
 *  kernels) against naive oracles, with SIMD on and off. Sweeps odd/even
 *  word counts, partial tails, and fan-ins around the APC parity-line
 *  cutoff. */
class BlockApiVsOracle
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
  protected:
    void TearDown() override { sc::simd::setLevel(was_level_); }

    const sc::simd::Level was_level_ = sc::simd::level();
};

TEST_P(BlockApiVsOracle, CountsMatchNaiveCounts)
{
    auto [n, len] = GetParam();
    OperandSet ops(n, len, 1000 + n * 131 + len);
    const auto products = blocks::productStreams(ops.xs, ops.ws);
    for (sc::simd::Level lv : sc::simd::supportedLevels()) {
        sc::simd::setLevel(lv);
        const std::string where = "n=" + std::to_string(n) +
                                  " len=" + std::to_string(len) +
                                  " level=" + sc::simd::levelName(lv);
        EXPECT_EQ(sc::ParallelCounter::counts(ops.xs),
                  naiveCounts(ops.xs, false))
            << where;
        EXPECT_EQ(sc::ApproxParallelCounter::counts(ops.xs),
                  naiveCounts(ops.xs, true))
            << where;
        for (bool approximate : {false, true})
            EXPECT_EQ(blocks::ApcInnerProduct::countsFused(ops.xp, ops.wp,
                                                           approximate),
                      naiveCounts(products, approximate))
                << where << " approx=" << approximate;
    }
}

TEST_P(BlockApiVsOracle, MuxMatchesMaterializedProducts)
{
    // The fused block-level MUX path must consume the RNG exactly like
    // the materialize-then-muxAdd path and produce the same stream.
    auto [n, len] = GetParam();
    OperandSet ops(n, len, 2000 + n * 131 + len);
    const auto products = blocks::productStreams(ops.xs, ops.ws);
    for (sc::simd::Level lv : sc::simd::supportedLevels()) {
        sc::simd::setLevel(lv);
        sc::Xoshiro256ss sel_a(99 + n), sel_b(99 + n);
        EXPECT_EQ(blocks::MuxInnerProduct::sumProducts(products, sel_a),
                  blocks::MuxInnerProduct::sumProductsFused(ops.xp, ops.wp,
                                                            sel_b))
            << "n=" << n << " len=" << len
            << " level=" << sc::simd::levelName(lv);
        // Generator states must coincide afterwards too.
        EXPECT_EQ(sel_a.next(), sel_b.next());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BlockApiVsOracle,
    ::testing::Combine(
        // Fan-ins below/at/above the 4-line parity cutoff and past one
        // carry-save plane's worth of lines.
        ::testing::Values(1, 3, 4, 5, 26, 151),
        // Lengths around the 64-bit word boundary and realistic L.
        ::testing::Values(1, 63, 64, 65, 300, 1024)));

/** One filter's plain streams as a one-filter arena: the per-filter
 *  oracle's operand for the layout round-trip checks. */
sc::InterleavedWeightArena
oneFilterArena(const std::vector<sc::Bitstream> &ws)
{
    sc::InterleavedWeightArena arena;
    arena.reset(1, ws.size(), ws[0].length());
    for (size_t t = 0; t < ws.size(); ++t)
        arena.assign(0, t, ws[t]);
    return arena;
}

/** A filter block plus the matching plain per-filter views. */
struct BlockSet
{
    OperandSet ops;         //!< xs shared window; ws reused as filters
    sc::InterleavedWeightArena arena;
    std::vector<std::vector<sc::Bitstream>> filter_ws;

    BlockSet(size_t taps, size_t len, size_t filters, uint64_t seed)
        : ops(taps, len, seed)
    {
        sc::SngBank bank(seed ^ 0xF117E5);
        sc::SplitMix64 vals(seed ^ 0xB10C);
        arena.reset(filters, taps, len);
        filter_ws.resize(filters);
        for (size_t f = 0; f < filters; ++f) {
            for (size_t t = 0; t < taps; ++t) {
                filter_ws[f].push_back(
                    bank.bipolar(vals.nextInRange(-1, 1), len));
                arena.assign(f, t, filter_ws[f].back());
            }
        }
    }
};

/** (taps, len, filters): fan-ins across the 16-line Harley-Seal block
 *  size, lengths across word/segment boundaries, ragged lane counts. */
class MultiVsReference
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>>
{
};

TEST_P(MultiVsReference, ProductCountsMultiBitExact)
{
    auto [taps, len, filters] = GetParam();
    BlockSet set(taps, len, filters, 4000 + taps * 131 + len + filters);
    const size_t n_words = (len + 63) / 64;
    const auto xs = sc::toViews(set.ops.xs);
    for (size_t g = 0; g < set.arena.groups(); ++g) {
        const sc::WeightBlockView block = set.arena.block(g);
        std::vector<uint16_t> fused(block.lanes * len, 0xAAAA);
        std::vector<uint16_t> ref(block.lanes * len, 0x5555);
        sc::fusedProductCountsMulti(xs, block, /*approximate=*/true, 0,
                                    n_words, fused.data(), len);
        sc::referenceProductCountsMulti(xs, block, /*approximate=*/true,
                                        0, n_words, ref.data(), len);
        EXPECT_EQ(fused, ref) << "group " << g;
        // Layout round-trip: each lane equals the per-filter oracle on
        // the plain streams, interleaved on their own.
        for (size_t f = 0; f < block.lanes; ++f) {
            const sc::InterleavedWeightArena one =
                oneFilterArena(set.filter_ws[g * sc::kFilterLanes + f]);
            std::vector<uint16_t> plain(len);
            sc::referenceProductCountsMulti(xs, one.block(0),
                                            /*approximate=*/true, 0,
                                            n_words, plain.data(), len);
            const std::vector<uint16_t> lane(
                fused.begin() + static_cast<ptrdiff_t>(f * len),
                fused.begin() + static_cast<ptrdiff_t>((f + 1) * len));
            EXPECT_EQ(lane, plain) << "group " << g << " lane " << f;
        }
    }
}

TEST_P(MultiVsReference, RangedSegmentsConcatenateToWholeStream)
{
    auto [taps, len, filters] = GetParam();
    BlockSet set(taps, len, filters, 5000 + taps * 131 + len + filters);
    const size_t n_words = (len + 63) / 64;
    const auto xs = sc::toViews(set.ops.xs);
    const sc::WeightBlockView block = set.arena.block(0);

    std::vector<uint16_t> whole(block.lanes * len);
    sc::fusedProductCountsMulti(xs, block, /*approximate=*/true, 0,
                                n_words, whole.data(), len);
    // Word-range partitions, including one that does not divide the
    // word count, must reproduce the whole-stream counts exactly.
    for (size_t seg_words : {size_t{1}, size_t{2}, size_t{3}}) {
        std::vector<uint16_t> stitched(block.lanes * len);
        for (size_t w0 = 0; w0 < n_words; w0 += seg_words) {
            const size_t w1 = std::min(w0 + seg_words, n_words);
            const size_t n_cycles = std::min(w1 * 64, len) - w0 * 64;
            std::vector<uint16_t> part(block.lanes * n_cycles);
            sc::fusedProductCountsMulti(xs, block, /*approximate=*/true,
                                        w0, w1, part.data(), n_cycles);
            for (size_t f = 0; f < block.lanes; ++f)
                std::copy(part.begin() +
                              static_cast<ptrdiff_t>(f * n_cycles),
                          part.begin() +
                              static_cast<ptrdiff_t>((f + 1) * n_cycles),
                          stitched.begin() +
                              static_cast<ptrdiff_t>(f * len + w0 * 64));
        }
        EXPECT_EQ(stitched, whole) << "seg_words " << seg_words;
    }
}

TEST_P(MultiVsReference, MuxProductMultiBitExact)
{
    auto [taps, len, filters] = GetParam();
    BlockSet set(taps, len, filters, 6000 + taps * 131 + len + filters);
    const size_t n_words = (len + 63) / 64;
    const auto xs = sc::toViews(set.ops.xs);
    const sc::WeightBlockView block = set.arena.block(0);
    sc::Xoshiro256ss rng(41 + taps);
    std::vector<uint16_t> selects;
    sc::fillMuxSelects(taps, len, rng, selects);

    std::vector<uint64_t> fused(block.lanes * n_words, 0xDEAD);
    std::vector<uint64_t> ref(block.lanes * n_words, 0xBEEF);
    sc::fusedMuxProductMulti(xs, block, selects, 0, n_words, fused.data(),
                             n_words);
    sc::referenceMuxProductMulti(xs, block, selects, 0, n_words,
                                 ref.data(), n_words);
    EXPECT_EQ(fused, ref);
    // Shared selects across lanes: lane f equals the per-filter oracle
    // against filter f's plain streams.
    for (size_t f = 0; f < block.lanes; ++f) {
        const sc::InterleavedWeightArena one =
            oneFilterArena(set.filter_ws[f]);
        std::vector<uint64_t> single(n_words);
        sc::referenceMuxProductMulti(xs, one.block(0), selects, 0, n_words,
                                     single.data(), n_words);
        for (size_t w = 0; w < n_words; ++w)
            EXPECT_EQ(fused[f * n_words + w], single[w])
                << "lane " << f << " word " << w;
    }
}

TEST(MultiKernels, EmptyRangeAtTheRaggedTailIsANoOp)
{
    // begin == end == wordCount on a non-word-aligned length: the
    // clamped cycle count must be zero, not an underflow that sweeps
    // the output buffer.
    BlockSet set(3, 300, 2, 99);
    const size_t n_words = 5;
    const auto xs = sc::toViews(set.ops.xs);
    const sc::WeightBlockView block = set.arena.block(0);
    std::vector<uint16_t> out(8, 0x1234);
    sc::fusedProductCountsMulti(xs, block, true, n_words, n_words,
                                out.data(), 4);
    sc::referenceProductCountsMulti(xs, block, true, n_words, n_words,
                                    out.data(), 4);
    std::vector<uint64_t> words(4, 0x77);
    sc::fusedMuxProductMulti(xs, block, {}, n_words, n_words,
                             words.data(), 2);
    for (uint16_t v : out)
        EXPECT_EQ(v, 0x1234);
    for (uint64_t w : words)
        EXPECT_EQ(w, 0x77u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiVsReference,
    ::testing::Combine(
        // Fan-ins below/at/above the 16-line Harley-Seal block and the
        // parity cutoff, plus large blocked-layer shapes.
        ::testing::Values(1, 3, 15, 16, 17, 40, 151),
        // Lengths around word and 4-word-segment boundaries.
        ::testing::Values(63, 64, 200, 256, 300),
        // Full blocks, ragged last block, single lane.
        ::testing::Values(1, 4, 6)));

/** Restore the processwide SIMD selection after each test. */
class BatchLoopOrder : public ::testing::TestWithParam<size_t>
{
  protected:
    void TearDown() override { sc::simd::setLevel(was_level_); }

    const sc::simd::Level was_level_ = sc::simd::level();
};

/** Transpose one word's canonical planes (plus the parity word at
 *  index plane_cap) into per-cycle counts, substituting the parity LSB
 *  under the approximate reading. */
uint16_t
countFromPlanes(const uint64_t *pw, size_t row_stride, size_t plane_cap,
                bool approximate, size_t bit)
{
    uint16_t c = 0;
    for (size_t p = 0; p < plane_cap; ++p)
        c |= static_cast<uint16_t>(((pw[p * row_stride] >> bit) & 1) << p);
    if (approximate)
        c = static_cast<uint16_t>(
            (c & ~uint16_t{1}) | ((pw[plane_cap * row_stride] >> bit) & 1));
    return c;
}

TEST_P(BatchLoopOrder, PlanesCountsAndReferenceAgreeInBothOrders)
{
    // The batch kernels pick image-outer or word-outer order from the
    // weight slice size; both orders, and the plane form against the
    // counts form, must agree bit for bit with the bit-serial twin.
    const size_t taps = GetParam();
    constexpr size_t kImages = 4;
    constexpr size_t kFilters = 6; // one full and one ragged lane block
    const std::vector<uint32_t> active = {0, 2, 3};
    // Largest word range whose slice still takes the image-outer path.
    const size_t max_inner_words =
        sc::kImageOuterSliceBytes /
        (taps * sc::kFilterLanes * sizeof(uint64_t));
    ASSERT_GE(max_inner_words, 1u);
    for (bool word_outer : {false, true}) {
        const size_t range_words =
            word_outer ? max_inner_words + 1
                       : std::min<size_t>(max_inner_words, 3);
        // The range starts at word 1 and ends on a partial tail word.
        const size_t w0 = 1;
        const size_t n_words = range_words + 1;
        const size_t len = n_words * 64 - 17;
        const size_t slice_bytes = taps * sc::kFilterLanes * range_words *
                                   sizeof(uint64_t);
        ASSERT_EQ(slice_bytes > sc::kImageOuterSliceBytes, word_outer);

        sc::BatchStreamArena xs_arena;
        xs_arena.reset(taps, kImages, len);
        sc::SngBank bank(31 * taps + word_outer);
        sc::SplitMix64 vals(17 * taps + word_outer);
        for (size_t t = 0; t < taps; ++t)
            for (size_t b = 0; b < kImages; ++b)
                xs_arena.assign(t, b,
                                bank.bipolar(vals.nextInRange(-1, 1), len));
        std::vector<sc::BitstreamView> xs0;
        std::vector<size_t> strides;
        for (size_t t = 0; t < taps; ++t) {
            xs0.push_back(xs_arena.view(t, 0));
            strides.push_back(xs_arena.strideWords());
        }
        sc::InterleavedWeightArena weights;
        weights.reset(kFilters, taps, len);
        for (size_t f = 0; f < kFilters; ++f)
            for (size_t t = 0; t < taps; ++t)
                weights.assign(f, t,
                               bank.bipolar(vals.nextInRange(-1, 1), len));

        const size_t n_cycles = len - w0 * 64;
        const size_t lane_stride = range_words * 64;
        const size_t image_stride = sc::kFilterLanes * lane_stride;
        // The pixel-minor tile layout: each image's lanes side by side
        // in rows padded past the images' lanes.
        const size_t plane_cap = sc::planeCapForTaps(taps);
        const size_t plane_row_stride = active.size() * sc::kFilterLanes + 4;
        const size_t plane_image_stride = sc::kFilterLanes;
        for (size_t g = 0; g < weights.groups(); ++g) {
            const sc::WeightBlockView block = weights.block(g);
            for (bool approximate : {false, true}) {
                std::vector<uint16_t> reference(
                    active.size() * image_stride, 0);
                sc::referenceProductCountsMultiBatch(
                    xs0, strides, active.data(), active.size(), block,
                    approximate, w0, n_words, reference.data(),
                    lane_stride, image_stride);
                std::vector<uint64_t> scalar_planes;
                for (sc::simd::Level lv : sc::simd::supportedLevels()) {
                    sc::simd::setLevel(lv);
                    std::vector<uint16_t> counts(
                        active.size() * image_stride, 0);
                    sc::fusedProductCountsMultiBatch(
                        xs0, strides, active.data(), active.size(), block,
                        approximate, w0, n_words, counts.data(),
                        lane_stride, image_stride);
                    std::vector<uint64_t> planes(
                        range_words * (plane_cap + 1) * plane_row_stride,
                        0);
                    sc::fusedProductPlanesMultiBatch(
                        xs0, strides, active.data(), active.size(), block,
                        approximate, w0, n_words, planes.data(), plane_cap,
                        plane_row_stride, plane_image_stride);
                    std::vector<uint16_t> from_planes(
                        active.size() * image_stride, 0);
                    for (size_t j = 0; j < active.size(); ++j)
                        for (size_t f = 0; f < block.lanes; ++f)
                            for (size_t i = 0; i < n_cycles; ++i)
                                from_planes[j * image_stride +
                                            f * lane_stride + i] =
                                    countFromPlanes(
                                        planes.data() +
                                            j * plane_image_stride + f +
                                            (i / 64) * (plane_cap + 1) *
                                                plane_row_stride,
                                        plane_row_stride, plane_cap,
                                        approximate, i % 64);
                    const std::string where =
                        "taps=" + std::to_string(taps) +
                        " word_outer=" + std::to_string(word_outer) +
                        " g=" + std::to_string(g) +
                        " approx=" + std::to_string(approximate) +
                        " level=" + sc::simd::levelName(lv);
                    EXPECT_EQ(counts, reference) << where;
                    EXPECT_EQ(from_planes, reference) << where;
                    // The plane words themselves (zero planes above the
                    // fold's high plane, zero tail bits) match across
                    // the dispatch too.
                    if (lv == sc::simd::Level::Scalar)
                        scalar_planes = planes;
                    else
                        EXPECT_EQ(planes, scalar_planes) << where;
                }
            }
        }
    }
}

// Single line, the parity cutoff, the 16-line Harley-Seal block and
// its tails (21 = 16 + 4 + 1 lines, 22 = 16 + 4 + 2), and wide FC-like
// fan-ins.
INSTANTIATE_TEST_SUITE_P(Taps, BatchLoopOrder,
                         ::testing::Values(1, 5, 16, 21, 22, 201, 257));

/** An untrained mini network is enough for engine equivalence: the
 *  kernels see arbitrary weight streams either way. */
core::ScNetwork
makeMiniScNet(nn::PoolingMode pooling, core::AdderKind first_adder)
{
    nn::Network net = nn::buildMiniLeNet(pooling, 21);
    core::ScNetworkConfig cfg;
    cfg.pooling = pooling;
    cfg.layer_adders = {first_adder, core::AdderKind::Apc,
                        core::AdderKind::Apc};
    cfg.bitstream_len = 256;
    return core::ScNetwork(net, cfg);
}

TEST(EngineModes, FusedMatchesReferencePredictions)
{
    // Covers all four FEB kinds: MUX/APC crossed with avg/max pooling.
    const struct
    {
        nn::PoolingMode pooling;
        core::AdderKind adder;
    } cases[] = {
        {nn::PoolingMode::Average, core::AdderKind::Mux},
        {nn::PoolingMode::Max, core::AdderKind::Mux},
        {nn::PoolingMode::Average, core::AdderKind::Apc},
        {nn::PoolingMode::Max, core::AdderKind::Apc},
    };
    for (const auto &c : cases) {
        core::ScNetwork sc_net = makeMiniScNet(c.pooling, c.adder);
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            nn::Tensor img = nn::DigitDataset::render(seed % 10, seed);
            sc_net.setEngineMode(core::EngineMode::Fused);
            const size_t fused = sc_net.predict(img, seed);
            sc_net.setEngineMode(core::EngineMode::Reference);
            const size_t reference = sc_net.predict(img, seed);
            EXPECT_EQ(fused, reference) << "seed=" << seed;
        }
    }
}

TEST(ForwardBatch, DeterministicAcrossThreadCounts)
{
    core::ScNetwork sc_net =
        makeMiniScNet(nn::PoolingMode::Average, core::AdderKind::Apc);
    std::vector<nn::Tensor> images;
    for (size_t i = 0; i < 8; ++i)
        images.push_back(nn::DigitDataset::render(i % 10, 50 + i));

    ThreadPool serial(1), quad(4);
    const auto preds1 = sc_net.forwardBatch(images, 42, &serial);
    const auto preds4 = sc_net.forwardBatch(images, 42, &quad);
    const auto preds_global = sc_net.forwardBatch(images, 42);
    EXPECT_EQ(preds1, preds4);
    EXPECT_EQ(preds1, preds_global);

    // The batch must equal per-image predict() at the batch seeds.
    for (size_t i = 0; i < images.size(); ++i)
        EXPECT_EQ(preds1[i], sc_net.predict(images[i], 42 + i * 7919));
}

TEST(ForwardBatch, EmptyBatchIsFine)
{
    core::ScNetwork sc_net =
        makeMiniScNet(nn::PoolingMode::Average, core::AdderKind::Apc);
    EXPECT_TRUE(sc_net.forwardBatch({}, 1).empty());
}

} // namespace
} // namespace scdcnn
