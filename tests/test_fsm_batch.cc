/**
 * @file
 * Randomized bit-exact equivalence tests for the table-driven batched
 * activation FSMs (sc/fsm_batch.h) against the scalar Stanh/Btanh
 * steppers — the oracle side of the twin contract: K across even
 * values, custom thresholds, lengths across word boundaries, and
 * Btanh deltas on both sides of the bucketed-table range. The Btanh
 * tile form runs at every SIMD level the host supports, across pixel
 * counts around the vector chunks and the 16-bit lane guard edges.
 */

#include <algorithm>
#include <string>
#include <utility>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sc/btanh.h"
#include "sc/fsm_batch.h"
#include "sc/rng.h"
#include "sc/simd.h"
#include "sc/sng.h"
#include "sc/stanh.h"

namespace scdcnn {
namespace {

/** Runs a body at every supported SIMD level, restoring the process
 *  selection afterwards (the BatchKernel fixture's discipline). */
template <class Body>
void
atEveryLevel(Body &&body)
{
    const sc::simd::Level was = sc::simd::level();
    for (sc::simd::Level lv : sc::simd::supportedLevels()) {
        sc::simd::setLevel(lv);
        body(std::string(" level=") + sc::simd::levelName(lv));
    }
    sc::simd::setLevel(was);
}

class StanhBatchVsScalar
    : public ::testing::TestWithParam<std::tuple<unsigned, size_t>>
{
};

TEST_P(StanhBatchVsScalar, DefaultThresholdBitExact)
{
    auto [k, len] = GetParam();
    sc::SngBank bank(10 + k * 131 + len);
    sc::SplitMix64 vals(k ^ len);
    sc::StanhBatchTable table(k);
    for (int rep = 0; rep < 4; ++rep) {
        sc::Bitstream in =
            bank.bipolar(vals.nextInRange(-1, 1), len);
        sc::Stanh scalar(k);
        sc::Bitstream batch;
        table.transform(in, batch);
        EXPECT_EQ(batch, scalar.transform(in))
            << "k=" << k << " len=" << len << " rep=" << rep;
    }
}

TEST_P(StanhBatchVsScalar, CustomThresholdBitExact)
{
    auto [k, len] = GetParam();
    // The Figure 11 re-designed threshold K/5 (>= 1), plus an extreme.
    const int thresholds[] = {std::max(1, static_cast<int>(k) / 5),
                              static_cast<int>(k) - 1};
    sc::SngBank bank(20 + k * 131 + len);
    sc::SplitMix64 vals(k * 3 ^ len);
    for (int thr : thresholds) {
        sc::StanhBatchTable table(k, thr);
        sc::Bitstream in =
            bank.bipolar(vals.nextInRange(-1, 1), len);
        sc::Stanh scalar(k, thr);
        sc::Bitstream batch;
        table.transform(in, batch);
        EXPECT_EQ(batch, scalar.transform(in))
            << "k=" << k << " thr=" << thr << " len=" << len;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StanhBatchVsScalar,
    ::testing::Combine(
        // Even state counts per the paper, including the minimum.
        ::testing::Values(2u, 4u, 6u, 16u, 32u, 178u),
        // Lengths around byte and word boundaries and realistic L.
        ::testing::Values(1, 7, 8, 9, 63, 64, 65, 300, 1024)));

class BtanhBatchVsScalar
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, size_t>>
{
};

TEST_P(BtanhBatchVsScalar, CountsBitExact)
{
    auto [k, n, len] = GetParam();
    sc::SplitMix64 vals(30 + k * 131 + n * 17 + len);
    sc::BtanhBatchTable table(k, n);
    // Counts across the full [0, n] range: with n > 63 many of the
    // deltas 2v - n land outside the bucketed table and exercise the
    // scalar fallback. The single-stream counts form is the twin the
    // tile Btanh is checked against (TileBtanh below).
    std::vector<uint16_t> counts(len);
    for (auto &c : counts)
        c = static_cast<uint16_t>(vals.nextBelow(n + 1));
    sc::Btanh scalar(k, n);
    sc::Bitstream batch;
    table.transform(counts, batch);
    EXPECT_EQ(batch, scalar.transform(counts))
        << "k=" << k << " n=" << n << " len=" << len;
}

TEST_P(BtanhBatchVsScalar, SignedStepsBitExact)
{
    auto [k, n, len] = GetParam();
    sc::SplitMix64 vals(40 + k * 131 + n * 17 + len);
    sc::BtanhBatchTable table(k, n);
    const int span = 2 * static_cast<int>(n) + 1;
    std::vector<int> steps(len);
    for (auto &s : steps)
        s = static_cast<int>(vals.nextBelow(
                static_cast<uint64_t>(span))) -
            static_cast<int>(n);
    sc::Btanh scalar(k, n);
    const sc::Bitstream expect = scalar.transformSigned(steps);
    atEveryLevel([&](const std::string &level) {
        sc::Bitstream batch;
        table.transformSigned(steps, batch);
        EXPECT_EQ(batch, expect)
            << "k=" << k << " n=" << n << " len=" << len << level;
    });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BtanhBatchVsScalar,
    ::testing::Combine(
        // State counts across the layer sizings (2N clamped).
        ::testing::Values(2u, 8u, 34u, 180u),
        // Fan-ins below and above the +/-127 delta bucket range.
        ::testing::Values(5u, 26u, 151u, 257u),
        // Lengths across word boundaries.
        ::testing::Values(1, 63, 64, 65, 300, 1024)));

TEST(ResumableTransforms, WordAlignedChunksMatchWholeStream)
{
    // The segment-streaming engine transforms a stream in word-aligned
    // chunks with the FSM state carried in between; the concatenated
    // outputs must be bit-exact with one whole-stream transform for
    // every chunking, including a final partial word.
    sc::SplitMix64 vals(31);
    const size_t len = 300; // 4 full words + a 44-bit tail
    const size_t n_words = (len + 63) / 64;

    sc::Bitstream in(len);
    for (size_t i = 0; i < len; ++i)
        in.set(i, (vals.next() & 1) != 0);
    std::vector<uint16_t> counts(len);
    std::vector<int> steps(len);
    for (size_t i = 0; i < len; ++i) {
        counts[i] = static_cast<uint16_t>(vals.nextBelow(26));
        steps[i] = static_cast<int>(vals.nextBelow(51)) - 25;
    }

    const sc::StanhBatchTable stanh(8);
    const sc::BtanhBatchTable btanh(12, 25);
    sc::Bitstream whole_stanh;
    stanh.transform(in, whole_stanh);
    sc::Bitstream whole_btanh, whole_signed;
    btanh.transform(counts, whole_btanh);
    btanh.transformSigned(steps, whole_signed);

    for (size_t seg_words : {size_t{1}, size_t{2}, size_t{3}}) {
        std::vector<uint64_t> out_stanh(n_words, ~uint64_t{0});
        std::vector<uint64_t> out_btanh(n_words, ~uint64_t{0});
        std::vector<uint64_t> out_signed(n_words, ~uint64_t{0});
        uint16_t s_state = stanh.initialState();
        uint16_t b_state = btanh.initialState();
        uint16_t g_state = btanh.initialState();
        for (size_t w0 = 0; w0 < n_words; w0 += seg_words) {
            const size_t w1 = std::min(w0 + seg_words, n_words);
            const size_t n_cycles = std::min(w1 * 64, len) - w0 * 64;
            stanh.transformWords(in.words().data() + w0, n_cycles,
                                 out_stanh.data() + w0, &s_state);
            btanh.transformWords(counts.data() + w0 * 64, n_cycles,
                                 out_btanh.data() + w0, &b_state);
            btanh.transformSignedWords(steps.data() + w0 * 64, n_cycles,
                                       out_signed.data() + w0, &g_state);
        }
        EXPECT_EQ(out_stanh, whole_stanh.words())
            << "seg_words " << seg_words;
        EXPECT_EQ(out_btanh, whole_btanh.words())
            << "seg_words " << seg_words;
        EXPECT_EQ(out_signed, whole_signed.words())
            << "seg_words " << seg_words;
    }
}

TEST(ResumableTransforms, AreTheBatchFormsReferenceTwins)
{
    // The engine steps tiles of streams through the Stanh and
    // signed-step Btanh batch transforms; per stream and per chunk they
    // must match the resumable single-stream forms, at every SIMD level
    // and for stream counts around the 16-stream tiles (one stream, a
    // partial tile, a full one, a tile plus one, two, two plus one).
    sc::SplitMix64 vals(57);
    const size_t len = 300;
    const size_t n_words = (len + 63) / 64;
    const sc::StanhBatchTable stanh(8);
    const sc::BtanhBatchTable btanh(12, 25);

    for (size_t n : {1, 15, 16, 17, 32, 33}) {
        std::vector<std::vector<uint64_t>> in(n,
                                              std::vector<uint64_t>(n_words));
        std::vector<std::vector<int>> steps(n, std::vector<int>(len));
        for (size_t s = 0; s < n; ++s) {
            for (auto &w : in[s])
                w = vals.next();
            in[s].back() &= (uint64_t{1} << (len % 64)) - 1;
            for (auto &v : steps[s])
                v = static_cast<int>(vals.nextBelow(51)) - 25;
        }
        atEveryLevel([&](const std::string &level) {
            using Words = std::vector<std::vector<uint64_t>>;
            Words twin[2], batch[2];
            for (auto *set : {twin, batch})
                for (size_t k = 0; k < 2; ++k)
                    set[k].assign(n, std::vector<uint64_t>(n_words));
            std::vector<uint16_t> twin_st[2], batch_st[2];
            for (size_t k = 0; k < 2; ++k) {
                const uint16_t init =
                    k == 0 ? stanh.initialState() : btanh.initialState();
                twin_st[k].assign(n, init);
                batch_st[k].assign(n, init);
            }
            const size_t seg_words = 2;
            for (size_t w0 = 0; w0 < n_words; w0 += seg_words) {
                const size_t w1 = std::min(w0 + seg_words, n_words);
                const size_t n_cycles = std::min(w1 * 64, len) - w0 * 64;
                std::vector<const uint64_t *> in_p(n);
                std::vector<const int *> step_p(n);
                std::vector<uint64_t *> out_p[2];
                std::vector<uint16_t *> st_p[2];
                for (size_t s = 0; s < n; ++s) {
                    in_p[s] = in[s].data() + w0;
                    step_p[s] = steps[s].data() + w0 * 64;
                    stanh.transformWords(in_p[s], n_cycles,
                                         twin[0][s].data() + w0,
                                         &twin_st[0][s]);
                    btanh.transformSignedWords(step_p[s], n_cycles,
                                               twin[1][s].data() + w0,
                                               &twin_st[1][s]);
                    for (size_t k = 0; k < 2; ++k) {
                        out_p[k].push_back(batch[k][s].data() + w0);
                        st_p[k].push_back(&batch_st[k][s]);
                    }
                }
                stanh.transformWordsBatch(in_p.data(), n_cycles,
                                          out_p[0].data(), st_p[0].data(),
                                          n);
                btanh.transformSignedWordsBatch(step_p.data(), n_cycles,
                                                out_p[1].data(),
                                                st_p[1].data(), n);
            }
            for (size_t k = 0; k < 2; ++k) {
                EXPECT_EQ(batch[k], twin[k])
                    << "transform " << k << " streams=" << n << level;
                EXPECT_EQ(batch_st[k], twin_st[k])
                    << "transform " << k << " streams=" << n << level;
            }
        });
    }
}

/**
 * A random pixel-minor plane tile (sc::simd::PlaneTile) and random
 * winners, with the counts every pixel's winners forward.
 */
struct WinnerTile
{
    size_t stride;
    sc::simd::PlaneTile tile;
    std::vector<uint64_t> planes;
    std::vector<uint8_t> winners;
    std::vector<std::vector<uint16_t>> forwarded; //!< [pixel][cycle]

    WinnerTile(size_t n_pixels, size_t n_inputs, size_t plane_cap,
               bool parity, size_t n_cycles, sc::SplitMix64 &vals)
        : stride((n_pixels + 15) / 16 * 16)
    {
        const size_t n_words = (n_cycles + 63) / 64;
        const size_t rows = plane_cap + 1;
        planes.resize(n_inputs * n_words * rows * stride);
        for (auto &w : planes)
            w = vals.next();
        // Canonical planes hold no count above the cap's range; a run
        // of all-ones counts pushes the counters into the top rail.
        for (size_t k = 0; k < n_inputs; ++k)
            for (size_t q = 0; q < n_words; ++q)
                for (size_t px = 0; px < stride; ++px)
                    if (vals.nextBelow(4) == 0)
                        for (size_t r = 0; r < rows; ++r)
                            planes[((k * n_words + q) * rows + r) * stride +
                                   px] = ~uint64_t{0};
        winners.resize(n_words * stride * 4);
        for (auto &w : winners)
            w = static_cast<uint8_t>(vals.nextBelow(n_inputs));
        tile = {.planes = planes.data(),
                .n_inputs = n_inputs,
                .n_words = n_words,
                .plane_cap = plane_cap,
                .pixel_stride = stride,
                .parity = parity};
        forwarded.assign(n_pixels, std::vector<uint16_t>(n_cycles));
        for (size_t px = 0; px < n_pixels; ++px)
            for (size_t i = 0; i < n_cycles; ++i) {
                const size_t q = i / 64;
                const size_t w = winners[(q * stride + px) * 4 + i % 64 / 16];
                uint16_t c = 0;
                for (size_t p = 0; p < plane_cap; ++p)
                    c |= static_cast<uint16_t>(
                        ((tile.row(w, q, tile.digitRow(p))[px] >> (i % 64)) &
                         1)
                        << p);
                forwarded[px][i] = c;
            }
    }
};

TEST(TileBtanh, MatchesTheSingleStreamTwinAtEveryLevel)
{
    // BtanhBatchTable::transformTile reads each pixel's counts straight
    // from its winners' plane words; per pixel it must match the
    // resumable single-stream transform over those counts, carried
    // state included: every SIMD level, pixel counts around the 16- and
    // 32-lane chunks, one to four inputs, plane counts across the
    // one-byte and two-byte transposes, both parity readings, partial
    // groups and words, and the 16-bit lane guard edges.
    sc::SplitMix64 vals(59);
    struct Shape
    {
        unsigned k, n;
        size_t plane_cap;
    };
    const Shape shapes[] = {{2, 1, 1},      {12, 25, 5},    {8, 26, 8},
                            {34, 151, 9},   {180, 257, 13}, {8192, 4096, 13},
                            {8194, 4096, 13}, {8192, 4097, 13}};
    for (const Shape &sh : shapes)
    for (size_t n_pixels : {1, 15, 16, 17, 32, 33})
    for (size_t n_inputs : {1, 4})
    for (bool parity : {true, false})
    for (size_t n_cycles : {size_t{256}, size_t{83}}) {
        const WinnerTile in(n_pixels, n_inputs, sh.plane_cap, parity,
                            n_cycles, vals);
        const sc::BtanhBatchTable table(sh.k, sh.n);
        std::vector<uint16_t> init(in.stride);
        for (auto &st : init)
            st = static_cast<uint16_t>(vals.nextBelow(sh.k));
        std::vector<std::vector<uint64_t>> twin(n_pixels);
        std::vector<uint16_t> twin_st(init.begin(),
                                      init.begin() + n_pixels);
        for (size_t px = 0; px < n_pixels; ++px) {
            twin[px].resize(in.tile.n_words);
            table.transformWords(in.forwarded[px].data(), n_cycles,
                                 twin[px].data(), &twin_st[px]);
        }
        atEveryLevel([&](const std::string &level) {
            std::vector<uint16_t> states = init;
            std::vector<uint64_t> outs(in.tile.n_words * in.stride);
            table.transformTile(in.tile, in.winners.data(), n_pixels,
                                n_cycles, states.data(), outs.data());
            for (size_t px = 0; px < n_pixels; ++px) {
                const std::string where =
                    "k=" + std::to_string(sh.k) +
                    " n=" + std::to_string(sh.n) +
                    " cap=" + std::to_string(sh.plane_cap) +
                    " pixels=" + std::to_string(n_pixels) +
                    " inputs=" + std::to_string(n_inputs) +
                    " parity=" + std::to_string(parity) +
                    " cycles=" + std::to_string(n_cycles) +
                    " pixel=" + std::to_string(px) + level;
                for (size_t q = 0; q < in.tile.n_words; ++q)
                    EXPECT_EQ(outs[q * in.stride + px], twin[px][q])
                        << where << " word=" << q;
                EXPECT_EQ(states[px], twin_st[px]) << where;
            }
        });
    }
}

TEST(FsmTableCache, SharesTablesByParameters)
{
    sc::FsmTableCache cache;
    const sc::StanhBatchTable &a = cache.stanh(8);
    const sc::StanhBatchTable &b = cache.stanh(8, 4); // 4 == 8/2 default
    const sc::StanhBatchTable &c = cache.stanh(8, 2);
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);

    const sc::BtanhBatchTable &d = cache.btanh(8, 26);
    const sc::BtanhBatchTable &e = cache.btanh(8, 26);
    const sc::BtanhBatchTable &f = cache.btanh(8, 27);
    EXPECT_EQ(&d, &e);
    EXPECT_NE(&d, &f);
}

TEST(StanhBatchTable, EmptyStreamIsFine)
{
    sc::StanhBatchTable table(4);
    sc::Bitstream out;
    table.transform(sc::Bitstream(), out);
    EXPECT_TRUE(out.empty());
}

} // namespace
} // namespace scdcnn
