/**
 * @file
 * Segment-streaming equivalence of the network engine: the fused
 * engine advanced in word segments (any size, including ones that do
 * not divide the stream) must be bit-identical — predictions AND
 * output-layer scores — to whole-stream execution and to the
 * bit-serial Reference oracle, for every feature-extraction-block
 * kind. Plus Progressive-mode semantics: no-exit degenerates to
 * Fused, early exit reports the bits consumed, and on a trained
 * network the accuracy cost of a moderate margin stays small.
 */

#include <vector>

#include <gtest/gtest.h>

#include "core/sc_network.h"
#include "nn/trainer.h"

namespace scdcnn {
namespace {

TEST(SegmentStreaming, AnySegmentSizeIsBitExactAcrossModes)
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
    for (const auto &c : cases) {
        nn::Network net = nn::buildMiniLeNet(c.pooling, 23);
        nn::Tensor img = nn::DigitDataset::render(4, 9);

        core::ScNetworkConfig cfg;
        cfg.pooling = c.pooling;
        cfg.layer_adders = {c.adder, core::AdderKind::Apc,
                            core::AdderKind::Apc};
        cfg.bitstream_len = 200; // 4 words, 8-bit tail

        // Whole-stream fused run (plain Fused calls never segment).
        core::ForwardInfo whole;
        size_t whole_pred;
        {
            core::ScNetwork sc(net, cfg);
            whole_pred = sc.predict(img, 5, &whole);
            EXPECT_EQ(whole.effective_bits, 200u);
            EXPECT_FALSE(whole.early_exit);

            // The bit-serial oracle agrees (mode switch, same instance).
            sc.setEngineMode(core::EngineMode::Reference);
            core::ForwardInfo ref;
            EXPECT_EQ(sc.predict(img, 5, &ref), whole_pred);
            EXPECT_EQ(ref.scores, whole.scores);
        }

        // Segment sizes dividing and not dividing the 4-word stream,
        // run through Progressive at a margin no image reaches (equal
        // to Fused, see Progressive.NoExitDegeneratesToFused...).
        cfg.progressive_margin = 1e9;
        for (size_t seg_words : {size_t{1}, size_t{2}, size_t{3},
                                 size_t{4}, size_t{7}}) {
            cfg.stream_segment_words = seg_words;
            core::ScNetwork sc(net, cfg);
            sc.setEngineMode(core::EngineMode::Progressive);
            core::ForwardInfo info;
            EXPECT_EQ(sc.predict(img, 5, &info), whole_pred)
                << "seg_words=" << seg_words;
            EXPECT_EQ(info.scores, whole.scores)
                << "seg_words=" << seg_words;
            EXPECT_EQ(info.effective_bits, 200u);
            EXPECT_FALSE(info.early_exit);
        }
    }
}

TEST(SegmentStreaming, RandomizedSeedsStayBitExact)
{
    // A denser randomized sweep on the APC-max configuration (the
    // production path): several seeds and images, chunked vs whole.
    // Fused at a segment size that does not divide the 4-word stream,
    // against the bit-serial Reference oracle (always whole-stream),
    // across several seeds and images.
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 23);
    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.bitstream_len = 200;
    cfg.stream_segment_words = 3;
    cfg.progressive_margin = 1e9; // segmented, never exits: Fused
    core::ScNetwork fused_net(net, cfg);
    fused_net.setEngineMode(core::EngineMode::Progressive);
    core::ScNetwork ref_net(net, cfg);
    ref_net.setEngineMode(core::EngineMode::Reference);
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        nn::Tensor img = nn::DigitDataset::render(seed % 10, 30 + seed);
        core::ForwardInfo a, b;
        const size_t pa = fused_net.predict(img, seed, &a);
        const size_t pb = ref_net.predict(img, seed, &b);
        EXPECT_EQ(pa, pb) << "seed=" << seed;
        EXPECT_EQ(a.scores, b.scores) << "seed=" << seed;
    }
}

TEST(Progressive, NoExitDegeneratesToFusedAndIsOffByDefault)
{
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 23);
    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.bitstream_len = 256;
    cfg.stream_segment_words = 1;
    cfg.progressive_margin = 1e9; // never confident enough
    core::ScNetwork sc(net, cfg);
    EXPECT_EQ(sc.engineMode(), core::EngineMode::Fused); // off by default

    nn::Tensor img = nn::DigitDataset::render(2, 3);
    core::ForwardInfo fused;
    const size_t fused_pred = sc.predict(img, 7, &fused);

    sc.setEngineMode(core::EngineMode::Progressive);
    core::ForwardInfo prog;
    EXPECT_EQ(sc.predict(img, 7, &prog), fused_pred);
    EXPECT_EQ(prog.scores, fused.scores);
    EXPECT_EQ(prog.effective_bits, 256u);
    EXPECT_FALSE(prog.early_exit);
}

TEST(Progressive, ZeroMarginExitsAtTheFloor)
{
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 23);
    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.bitstream_len = 256;
    cfg.stream_segment_words = 1;
    cfg.progressive_margin = 0.0;
    cfg.progressive_min_bits = 128;
    core::ScNetwork sc(net, cfg);
    sc.setEngineMode(core::EngineMode::Progressive);
    core::ForwardInfo info;
    const size_t pred =
        sc.predict(nn::DigitDataset::render(5, 8), 11, &info);
    EXPECT_LT(pred, 10u);
    EXPECT_TRUE(info.early_exit);
    EXPECT_EQ(info.effective_bits, 128u); // first check at the floor
}

TEST(Progressive, WholeStreamConfigFallsBackToSegmentedCheckpoints)
{
    // stream_segment_words == 0 means whole-stream execution, which
    // would leave Progressive no mid-stream checkpoint; the engine
    // falls back to its default granularity there so the mode never
    // silently degrades to plain Fused.
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 23);
    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.bitstream_len = 1024;
    cfg.stream_segment_words = 0;
    cfg.progressive_margin = 0.0;
    cfg.progressive_min_bits = 256;
    core::ScNetwork sc(net, cfg);
    sc.setEngineMode(core::EngineMode::Progressive);
    core::ForwardInfo info;
    sc.predict(nn::DigitDataset::render(1, 2), 13, &info);
    EXPECT_TRUE(info.early_exit);
    EXPECT_EQ(info.effective_bits, 256u);
}

TEST(Progressive, TrainedNetworkTradesFewBitsForLittleAccuracy)
{
    // Accuracy sanity on a trained mini network: a moderate margin must
    // cut the average consumed bits well below L while the error-rate
    // delta against full-length evaluation stays small. (The LeNet-5
    // example prints the same trade-off at two margins.)
    nn::Dataset train = nn::DigitDataset::generate(1500, 5);
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 1);
    nn::TrainConfig tc;
    tc.epochs = 3;
    nn::Trainer(net, tc).train(train);
    nn::Dataset test = nn::DigitDataset::generate(120, 6);

    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.bitstream_len = 1024;
    cfg.progressive_margin = 2.0;
    core::ScNetwork sc(net, cfg);

    size_t wrong_full = 0, wrong_prog = 0;
    uint64_t bits = 0;
    core::ForwardInfo info;
    for (size_t i = 0; i < test.size(); ++i) {
        const nn::Tensor &img = test.samples[i].image;
        wrong_full += sc.predict(img, 777 + i * 7919) !=
                      test.samples[i].label;
    }
    sc.setEngineMode(core::EngineMode::Progressive);
    for (size_t i = 0; i < test.size(); ++i) {
        const nn::Tensor &img = test.samples[i].image;
        wrong_prog += sc.predict(img, 777 + i * 7919, &info) !=
                      test.samples[i].label;
        bits += info.effective_bits;
    }
    const double err_full =
        static_cast<double>(wrong_full) / static_cast<double>(test.size());
    const double err_prog =
        static_cast<double>(wrong_prog) / static_cast<double>(test.size());
    const double avg_bits =
        static_cast<double>(bits) / static_cast<double>(test.size());
    // Well under half the stream on average, at a small error delta
    // (the 120-image set resolves 0.83% steps; allow a few flips).
    EXPECT_LT(avg_bits, 640.0);
    EXPECT_LE(err_prog, err_full + 0.025);
}

} // namespace
} // namespace scdcnn
