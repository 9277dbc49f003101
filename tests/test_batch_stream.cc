/**
 * @file
 * Batch-axis (weight-stationary) execution, bottom to top: the batch
 * kernel twins must be bit-exact with the per-image multi-kernels over
 * shifted views (ragged lanes/taps/word ranges, non-contiguous active
 * image sets, SIMD on and off); the interleaved FSM batch transforms
 * must match the single-stream resumable steppers across segment
 * boundaries; and the one SC driver behind forwardBatch and
 * predictWith must be bit-exact — predictions, scores, effective bits,
 * early-exit flags — between a B-image batch and B one-image calls,
 * and between its fused kernels and their Reference twins, for every
 * FEB kind, segment size, ragged batch shape and mixed Progressive
 * early-exit batch, at any thread count.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/sc_network.h"
#include "nn/trainer.h"
#include "sc/bitstream.h"
#include "sc/fsm_batch.h"
#include "sc/fused.h"
#include "sc/rng.h"
#include "sc/simd.h"
#include "sc/sng.h"

namespace scdcnn {
namespace {

/** Restore the processwide SIMD selection after each test. */
class BatchKernel : public ::testing::Test
{
  protected:
    void TearDown() override { sc::simd::setLevel(was_level_); }

    const sc::simd::Level was_level_ = sc::simd::level();
};

/** Batched operands: n_taps arena sites x B images plus a shared
 *  (stride-0) bias line, in the image-0-view + word-stride form the
 *  batch kernels consume. */
struct BatchOperands
{
    sc::BatchStreamArena arena;
    sc::Bitstream bias;
    std::vector<sc::BitstreamView> xs0;
    std::vector<size_t> strides;

    BatchOperands(size_t n_taps, size_t images, size_t len,
                  uint64_t seed)
    {
        arena.reset(n_taps, images, len);
        sc::SngBank bank(seed);
        sc::SplitMix64 vals(seed ^ 0xABCD);
        for (size_t i = 0; i < n_taps; ++i)
            for (size_t b = 0; b < images; ++b)
                arena.assign(i, b,
                             bank.bipolar(vals.nextInRange(-1, 1), len));
        bias = sc::constantStream(true, len);
        for (size_t i = 0; i < n_taps; ++i) {
            xs0.push_back(arena.view(i, 0));
            strides.push_back(arena.strideWords());
        }
        xs0.push_back(bias);
        strides.push_back(0);
    }
};

TEST_F(BatchKernel, ProductCountsMatchPerImageAndReference)
{
    constexpr size_t kImages = 4;
    // Tap counts straddling the 16-line Harley-Seal block (plus the
    // bias line), filter counts producing full and ragged lane blocks,
    // and a stream length with a partial tail word.
    for (size_t n_taps : {size_t{4}, size_t{17}, size_t{36}}) {
        for (size_t filters : {size_t{4}, size_t{6}}) {
            const size_t len = 200;
            const size_t n_words = (len + 63) / 64;
            BatchOperands ops(n_taps, kImages, len,
                              900 + n_taps * 31 + filters);
            sc::InterleavedWeightArena weights;
            weights.reset(filters, n_taps + 1, len);
            sc::SngBank bank(77 + filters);
            sc::SplitMix64 vals(13 * n_taps);
            for (size_t f = 0; f < filters; ++f)
                for (size_t t = 0; t < n_taps + 1; ++t)
                    weights.assign(
                        f, t, bank.bipolar(vals.nextInRange(-1, 1), len));

            // A non-contiguous active set exercises the stride-offset
            // addressing (images 1 and 3 of 4).
            const std::vector<uint32_t> active = {1, 3};
            std::vector<sc::BitstreamView> shifted;
            for (size_t g = 0; g < weights.groups(); ++g) {
                const sc::WeightBlockView block = weights.block(g);
                for (size_t w0 : {size_t{0}, size_t{1}}) {
                    const size_t lane_stride = (n_words - w0) * 64;
                    const size_t image_stride =
                        sc::kFilterLanes * lane_stride;
                    for (bool approximate : {false, true}) {
                        for (sc::simd::Level lv : sc::simd::supportedLevels()) {
                            sc::simd::setLevel(lv);
                            std::vector<uint16_t> batched(
                                active.size() * image_stride, 0);
                            sc::fusedProductCountsMultiBatch(
                                ops.xs0, ops.strides, active.data(),
                                active.size(), block, approximate, w0,
                                n_words, batched.data(), lane_stride,
                                image_stride);

                            std::vector<uint16_t> reference(
                                active.size() * image_stride, 0);
                            sc::referenceProductCountsMultiBatch(
                                ops.xs0, ops.strides, active.data(),
                                active.size(), block, approximate, w0,
                                n_words, reference.data(), lane_stride,
                                image_stride);

                            std::vector<uint16_t> per_image(
                                active.size() * image_stride, 0);
                            for (size_t j = 0; j < active.size(); ++j) {
                                sc::shiftViewsForImage(
                                    ops.xs0, ops.strides, active[j],
                                    shifted);
                                sc::fusedProductCountsMulti(
                                    shifted, block, approximate, w0,
                                    n_words,
                                    per_image.data() + j * image_stride,
                                    lane_stride);
                            }
                            EXPECT_EQ(batched, per_image)
                                << "taps=" << n_taps
                                << " filters=" << filters << " g=" << g
                                << " w0=" << w0
                                << " approx=" << approximate
                                << " level=" << sc::simd::levelName(lv);
                            EXPECT_EQ(batched, reference)
                                << "taps=" << n_taps
                                << " filters=" << filters << " g=" << g
                                << " w0=" << w0
                                << " approx=" << approximate
                                << " level=" << sc::simd::levelName(lv);
                        }
                    }
                }
            }
        }
    }
}

TEST(FsmBatchStreams, InterleavedStanhMatchesPerStreamAcrossSegments)
{
    // More streams than one interleave tile, carried across an uneven
    // segment split (128 + 72 cycles of a 200-cycle stream).
    constexpr size_t kStreams = 21;
    constexpr size_t kLen = 200;
    const size_t n_words = (kLen + 63) / 64;
    const sc::StanhBatchTable table(8);

    std::vector<std::vector<uint64_t>> ins(kStreams);
    sc::SplitMix64 vals(0x57A7);
    for (auto &in : ins) {
        in.resize(n_words);
        for (auto &w : in)
            w = vals.next();
        in.back() &= (uint64_t{1} << (kLen % 64)) - 1;
    }

    std::vector<std::vector<uint64_t>> whole(kStreams),
        segmented(kStreams);
    std::vector<uint16_t> states(kStreams, table.initialState());
    std::vector<const uint64_t *> in_ptrs(kStreams);
    std::vector<uint64_t *> out_ptrs(kStreams);
    std::vector<uint16_t *> state_ptrs(kStreams);
    for (size_t s = 0; s < kStreams; ++s) {
        whole[s].resize(n_words);
        segmented[s].resize(n_words);
        table.transformWords(ins[s].data(), kLen, whole[s].data());
    }
    // Segment 1: cycles [0, 128) = 2 words; segment 2: [128, 200).
    for (size_t s = 0; s < kStreams; ++s) {
        in_ptrs[s] = ins[s].data();
        out_ptrs[s] = segmented[s].data();
        state_ptrs[s] = &states[s];
    }
    table.transformWordsBatch(in_ptrs.data(), 128, out_ptrs.data(),
                              state_ptrs.data(), kStreams);
    for (size_t s = 0; s < kStreams; ++s) {
        in_ptrs[s] = ins[s].data() + 2;
        out_ptrs[s] = segmented[s].data() + 2;
    }
    table.transformWordsBatch(in_ptrs.data(), kLen - 128,
                              out_ptrs.data(), state_ptrs.data(),
                              kStreams);
    for (size_t s = 0; s < kStreams; ++s)
        EXPECT_EQ(segmented[s], whole[s]) << "stream=" << s;
}

TEST(FsmBatchStreams, InterleavedBtanhMatchesPerStreamAcrossSegments)
{
    // The average-pooled APC stages' signed-step form, carried across
    // the same uneven split. (The count form's lanes are the tile
    // Btanh's, swept by TileBtanh.MatchesTheSingleStreamTwinAtEveryLevel
    // in tests/test_fsm_batch.cc.)
    constexpr size_t kStreams = 19;
    constexpr size_t kLen = 200;
    const size_t n_words = (kLen + 63) / 64;
    constexpr unsigned kInputs = 26;
    const sc::BtanhBatchTable table(16, kInputs);

    std::vector<std::vector<int>> steps(kStreams);
    sc::SplitMix64 vals(0xB7A9);
    for (auto &seq : steps) {
        seq.resize(kLen);
        for (auto &v : seq)
            v = static_cast<int>(vals.next() % 9) - 4;
    }

    std::vector<std::vector<uint64_t>> whole(kStreams),
        segmented(kStreams);
    std::vector<uint16_t> states(kStreams, table.initialState());
    std::vector<const int *> step_ptrs(kStreams);
    std::vector<uint64_t *> out_ptrs(kStreams);
    std::vector<uint16_t *> state_ptrs(kStreams);
    for (size_t s = 0; s < kStreams; ++s) {
        whole[s].resize(n_words);
        segmented[s].resize(n_words);
        table.transformSignedWords(steps[s].data(), kLen, whole[s].data());
        step_ptrs[s] = steps[s].data();
        out_ptrs[s] = segmented[s].data();
        state_ptrs[s] = &states[s];
    }
    table.transformSignedWordsBatch(step_ptrs.data(), 128, out_ptrs.data(),
                                    state_ptrs.data(), kStreams);
    for (size_t s = 0; s < kStreams; ++s) {
        step_ptrs[s] = steps[s].data() + 128;
        out_ptrs[s] = segmented[s].data() + 2;
    }
    table.transformSignedWordsBatch(step_ptrs.data(), kLen - 128,
                                    out_ptrs.data(), state_ptrs.data(),
                                    kStreams);
    for (size_t s = 0; s < kStreams; ++s)
        EXPECT_EQ(segmented[s], whole[s]) << "stream=" << s;
}

/** Predictions and every per-image ForwardInfo field must agree. */
void
expectSameOutcomes(const std::vector<size_t> &pa,
                   const std::vector<core::ForwardInfo> &ia,
                   const std::vector<size_t> &pb,
                   const std::vector<core::ForwardInfo> &ib,
                   const char *what)
{
    EXPECT_EQ(pa, pb) << what;
    ASSERT_EQ(ia.size(), ib.size()) << what;
    for (size_t i = 0; i < ia.size(); ++i) {
        EXPECT_EQ(ia[i].scores, ib[i].scores) << what << " image=" << i;
        EXPECT_EQ(ia[i].effective_bits, ib[i].effective_bits)
            << what << " image=" << i;
        EXPECT_EQ(ia[i].early_exit, ib[i].early_exit)
            << what << " image=" << i;
    }
}

/** Oracle half (a): a B-image forwardBatch must equal B one-image
 *  predictWith calls at the batch seed schedule — every image's
 *  outcome is independent of its batch-mates, the batch size and the
 *  active-set compaction around it. */
void
expectBatchMatchesSingles(const core::ScNetwork &sc,
                          const std::vector<nn::Tensor> &images,
                          uint64_t seed, const core::PredictOptions &opts,
                          ThreadPool *pool, const char *what)
{
    std::vector<core::ForwardInfo> bi;
    const auto bp = sc.forwardBatch(images, seed, opts, pool, &bi);
    std::vector<size_t> sp(images.size());
    std::vector<core::ForwardInfo> si(images.size());
    for (size_t i = 0; i < images.size(); ++i)
        sp[i] = sc.predictWith(images[i], seed + i * 7919, opts, &si[i]);
    expectSameOutcomes(bp, bi, sp, si, what);
}

/** Options that run Fused outputs on the stream_segment_words grid:
 *  Progressive at a margin no image reaches equals Fused
 *  (Progressive.NoExitDegeneratesToFusedAndIsOffByDefault), while
 *  plain Fused calls run whole streams. */
core::PredictOptions
segmentedFused()
{
    core::PredictOptions opts;
    opts.mode = core::EngineMode::Progressive;
    opts.progressive_margin = 1e9;
    return opts;
}

/** Oracle half (b): the driver on the fused kernels (run with
 *  @p fused) must equal the same driver on their bit-serial Reference
 *  twins (whole streams, scalar activation units). */
void
expectFusedMatchesReference(const core::ScNetwork &sc,
                            const std::vector<nn::Tensor> &images,
                            uint64_t seed, const core::PredictOptions &fused,
                            const char *what)
{
    core::PredictOptions reference;
    reference.mode = core::EngineMode::Reference;
    std::vector<core::ForwardInfo> fi, ri;
    const auto fp = sc.forwardBatch(images, seed, fused, nullptr, &fi);
    const auto rp =
        sc.forwardBatch(images, seed, reference, nullptr, &ri);
    expectSameOutcomes(fp, fi, rp, ri, what);
}

TEST(BatchEngine, BatchMatchesSinglesAndReferenceForEveryFebKind)
{
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
    std::vector<nn::Tensor> images;
    for (size_t i = 0; i < 5; ++i)
        images.push_back(nn::DigitDataset::render(i * 2 % 10, 40 + i));

    for (const auto &c : cases) {
        nn::Network net = nn::buildMiniLeNet(c.pooling, 23);
        core::ScNetworkConfig cfg;
        cfg.pooling = c.pooling;
        cfg.layer_adders = {c.adder, core::AdderKind::Apc,
                            core::AdderKind::Apc};
        cfg.bitstream_len = 200; // 4 words, 8-bit tail
        // 1-word, a size that does not divide the stream, and
        // whole-stream granularity (plain Fused): the segment-carry
        // logic of the batch kernels at B = 5 and B = 1.
        for (size_t seg_words : {size_t{1}, size_t{3}, size_t{0}}) {
            cfg.stream_segment_words = seg_words;
            core::ScNetwork sc(net, cfg);
            const core::PredictOptions opts =
                seg_words != 0 ? segmentedFused() : core::PredictOptions{};
            expectBatchMatchesSingles(sc, images, 17, opts, nullptr,
                                      "fused");
            expectFusedMatchesReference(sc, images, 17, opts,
                                        "fused vs reference");
        }
        // The Reference driver is batch-size invariant too.
        core::ScNetwork sc(net, cfg);
        core::PredictOptions reference;
        reference.mode = core::EngineMode::Reference;
        expectBatchMatchesSingles(sc, images, 17, reference, nullptr,
                                  "reference");
    }
}

TEST(BatchEngine, RaggedBatchSizesMatchPerImagePredict)
{
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 23);
    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.bitstream_len = 200;
    cfg.stream_segment_words = 3;
    core::ScNetwork sc(net, cfg);

    for (size_t batch : {size_t{1}, size_t{3}, size_t{8}}) {
        std::vector<nn::Tensor> images;
        for (size_t i = 0; i < batch; ++i)
            images.push_back(nn::DigitDataset::render(i % 10, 60 + i));
        expectBatchMatchesSingles(sc, images, 31, segmentedFused(),
                                  nullptr, "ragged");
    }
}

TEST(BatchEngine, ProgressiveMixedEarlyExitBatchStaysBitExact)
{
    // A trained network makes rendered digits decisive (they exit at
    // the margin check) while a uniform gray image stays ambiguous
    // (near-equal class scores, no exit) — a mixed batch in which some
    // images leave mid-stream. The driver must compact the active set
    // without disturbing the survivors: every per-image outcome equals
    // a one-image run's, on one thread and on three.
    nn::Dataset train = nn::DigitDataset::generate(1200, 5);
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 1);
    nn::TrainConfig tc;
    tc.epochs = 3;
    nn::Trainer(net, tc).train(train);

    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.bitstream_len = 1024;
    cfg.stream_segment_words = 2;
    core::ScNetwork sc(net, cfg);

    std::vector<nn::Tensor> images;
    for (size_t i = 0; i < 3; ++i)
        images.push_back(nn::DigitDataset::render(3 * i % 10, 80 + i));
    nn::Tensor gray = images[0];
    for (size_t i = 0; i < gray.size(); ++i)
        gray[i] = 0.5F;
    images.insert(images.begin() + 1, gray);

    core::PredictOptions opts;
    opts.mode = core::EngineMode::Progressive;
    opts.progressive_margin = 2.0;
    opts.progressive_min_bits = 128;
    ThreadPool one(1), three(3);
    expectBatchMatchesSingles(sc, images, 7, opts, &one, "progressive");
    expectBatchMatchesSingles(sc, images, 7, opts, &three,
                              "progressive, 3 threads");

    std::vector<core::ForwardInfo> infos;
    sc.forwardBatch(images, 7, opts, nullptr, &infos);
    size_t exits = 0;
    for (const auto &info : infos)
        exits += info.early_exit ? 1 : 0;
    EXPECT_GT(exits, 0u) << "no image exited early";
    EXPECT_LT(exits, images.size()) << "every image exited early";
}

TEST(BatchEngine, BatchedPathIsThreadCountInvariant)
{
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 23);
    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.bitstream_len = 200;
    cfg.stream_segment_words = 3;
    core::ScNetwork sc(net, cfg);

    std::vector<nn::Tensor> images;
    for (size_t i = 0; i < 6; ++i)
        images.push_back(nn::DigitDataset::render(i % 10, 90 + i));

    const core::PredictOptions opts = segmentedFused();
    ThreadPool one(1), three(3);
    std::vector<core::ForwardInfo> a, b;
    const auto pa = sc.forwardBatch(images, 55, opts, &one, &a);
    const auto pb = sc.forwardBatch(images, 55, opts, &three, &b);
    EXPECT_EQ(pa, pb);
    for (size_t i = 0; i < images.size(); ++i)
        EXPECT_EQ(a[i].scores, b[i].scores) << "image=" << i;
}

} // namespace
} // namespace scdcnn
