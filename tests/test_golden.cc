/**
 * @file
 * Golden engine digest: pins the bit-exact output of the SC engine.
 *
 * Every prediction, score bit, effective_bits and early-exit flag of
 * fixed-seed runs on two untrained seed-built mini-LeNets (Max/APC and
 * Average/MUX) is folded into one FNV-1a hash and compared against a
 * recorded constant. Fused, Progressive and Reference runs at batch
 * sizes 1 and 6 are covered, so any change to stream generation (SNG
 * draw order, per-stream seeding, tail handling) or to the kernels
 * that alters a single output bit shows up here. The constant holds
 * for every SIMD dispatch (SCDCNN_FORCE_SCALAR=1 included) and every
 * thread count.
 *
 * A second digest pins a topology whose layer widths are not multiples
 * of sc::kFilterLanes (partial filter blocks in every stage), run
 * through all four pooling x adder kinds at batch sizes 1, 3 and 6 on
 * explicit 1- and 3-thread pools, so per-chunk work splits at block
 * boundaries and mid-block.
 *
 * A third digest pins the stage runner's geometry on shapes the first
 * two never reach: a conv-free MLP whose two hidden fc stages both
 * leave a partial filter block, and a 2-channel non-square input. It
 * runs APC and MUX nets in Fused, Progressive and Reference modes, so
 * a gather or site-index bug shared by the fused path and the
 * Reference oracle still changes the digest.
 */

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/sc_network.h"
#include "nn/dataset.h"
#include "nn/network.h"
#include "nn/topology.h"

namespace scdcnn {
namespace {

/** 64-bit FNV-1a over a sequence of words. */
class Fnv1a
{
  public:
    void add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 0x100000001B3ull;
        }
    }

    void add(double d)
    {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xCBF29CE484222325ull;
};

/** A cancel signal that never fires: a call carrying it runs on the
 *  stream_segment_words checkpoint grid, with unchanged outputs. */
struct NeverCancel : core::CancelSignal
{
    bool cancelled() const override { return false; }
};

void
addRun(Fnv1a &h, const std::vector<size_t> &preds,
       const std::vector<core::ForwardInfo> &infos)
{
    for (size_t i = 0; i < preds.size(); ++i) {
        h.add(uint64_t{preds[i]});
        h.add(uint64_t{infos[i].effective_bits});
        h.add(uint64_t{infos[i].early_exit});
        for (double s : infos[i].scores)
            h.add(s);
    }
}

TEST(GoldenDigest, EngineOutputsAreBitIdentical)
{
    const struct
    {
        nn::PoolingMode pooling;
        core::AdderKind adder;
    } nets[] = {
        {nn::PoolingMode::Max, core::AdderKind::Apc},
        {nn::PoolingMode::Average, core::AdderKind::Mux},
    };
    std::vector<nn::Tensor> images;
    std::vector<uint64_t> seeds;
    for (size_t i = 0; i < 6; ++i) {
        images.push_back(nn::DigitDataset::render(i * 3 % 10, 40 + i));
        seeds.push_back(1000 + 17 * i);
    }

    Fnv1a h;
    size_t early_exits = 0;
    for (const auto &n : nets) {
        nn::Network net = nn::buildMiniLeNet(n.pooling, 23);
        core::ScNetworkConfig cfg;
        cfg.pooling = n.pooling;
        cfg.layer_adders = {n.adder, n.adder, n.adder};
        cfg.bitstream_len = 200; // 4 words, 8-bit tail
        cfg.stream_segment_words = 1;
        cfg.progressive_margin = 0.5;
        cfg.progressive_min_bits = 64;
        core::ScNetwork sc(net, cfg);
        for (core::EngineMode mode :
             {core::EngineMode::Fused, core::EngineMode::Progressive,
              core::EngineMode::Reference}) {
            core::PredictOptions opts;
            opts.mode = mode;
            opts.progressive_margin = cfg.progressive_margin;
            opts.progressive_min_bits = cfg.progressive_min_bits;
            std::vector<core::ForwardInfo> infos;
            for (size_t i = 0; i < images.size(); ++i) {
                const auto preds = sc.forwardBatch(
                    {images[i]}, {seeds[i]}, opts, nullptr, &infos);
                addRun(h, preds, infos);
            }
            const auto preds =
                sc.forwardBatch(images, seeds, opts, nullptr, &infos);
            addRun(h, preds, infos);
            for (const auto &info : infos)
                early_exits += info.early_exit;
        }
    }
    // Progressive must exercise both outcomes for the digest to pin
    // the early-exit path.
    EXPECT_GT(early_exits, 0u);
    EXPECT_LT(early_exits, 2 * images.size());
    EXPECT_EQ(h.value(), 0x4172aa64a2874a51ull)
        << std::hex << "digest 0x" << h.value();
}

TEST(GoldenDigest, PartialBlockTopologyIsBitIdentical)
{
    // 28x28 -> 6@5x5 -> 10@5x5 -> fc 30 -> fc 10: 6, 10 and 30 all
    // leave a partial kFilterLanes block.
    nn::TopologySpec spec;
    spec.convs = {{6, 5}, {10, 5}};
    spec.fc_hidden = {30};
    spec.seed = 41;
    const struct
    {
        nn::PoolingMode pooling;
        core::AdderKind adder;
    } nets[] = {
        {nn::PoolingMode::Max, core::AdderKind::Apc},
        {nn::PoolingMode::Average, core::AdderKind::Apc},
        {nn::PoolingMode::Max, core::AdderKind::Mux},
        {nn::PoolingMode::Average, core::AdderKind::Mux},
    };
    std::vector<nn::Tensor> images;
    std::vector<uint64_t> seeds;
    for (size_t i = 0; i < 6; ++i) {
        images.push_back(nn::DigitDataset::render(i * 7 % 10, 90 + i));
        seeds.push_back(2000 + 31 * i);
    }
    const std::vector<nn::Tensor> first3(images.begin(),
                                         images.begin() + 3);
    const std::vector<uint64_t> seeds3(seeds.begin(), seeds.begin() + 3);

    ThreadPool pool1(1);
    ThreadPool pool3(3);
    Fnv1a h;
    size_t early_exits = 0;
    size_t progressive_runs = 0;
    for (const auto &n : nets) {
        nn::Network net = nn::buildTopology(spec, n.pooling);
        core::ScNetworkConfig cfg;
        cfg.pooling = n.pooling;
        cfg.layer_adders = {n.adder, n.adder, n.adder};
        cfg.bitstream_len = 200; // 4 words, 8-bit tail
        cfg.stream_segment_words = 1;
        core::ScNetwork sc(net, cfg);
        // Fused calls carry a never-firing cancel signal, so they run
        // on a 3-word grid: one full and one partial segment.
        cfg.stream_segment_words = 3;
        core::ScNetwork sc3(net, cfg);
        const NeverCancel never;
        for (core::EngineMode mode :
             {core::EngineMode::Fused, core::EngineMode::Progressive}) {
            core::PredictOptions opts;
            opts.mode = mode;
            opts.progressive_margin = 0.7;
            opts.progressive_min_bits = 64;
            const bool fused = mode == core::EngineMode::Fused;
            for (ThreadPool *pool : {&pool1, &pool3}) {
                std::vector<core::ForwardInfo> infos;
                const auto run = [&](const std::vector<nn::Tensor> &in,
                                     const std::vector<uint64_t> &in_seeds) {
                    const std::vector<const core::CancelSignal *> cancels(
                        in.size(), &never);
                    const auto preds =
                        (fused ? sc3 : sc)
                            .forwardBatch(in, in_seeds, opts, pool, &infos,
                                          fused ? &cancels : nullptr);
                    addRun(h, preds, infos);
                };
                for (size_t i : {size_t{0}, size_t{4}})
                    run({images[i]}, {seeds[i]});
                run(first3, seeds3);
                run(images, seeds);
                if (mode == core::EngineMode::Progressive) {
                    ++progressive_runs;
                    for (const auto &info : infos)
                        early_exits += info.early_exit;
                }
            }
        }
    }
    // Progressive must compact the active set mid-stream for some
    // images and not for others.
    EXPECT_GT(early_exits, 0u);
    EXPECT_LT(early_exits, progressive_runs * images.size());
    EXPECT_EQ(h.value(), 0x50850cfdb69475a1ull)
        << std::hex << "digest 0x" << h.value();
}

TEST(GoldenDigest, MlpAndNonSquareInputAreBitIdentical)
{
    // 784 -> fc 21 -> fc 13 -> 10: both hidden fc stages leave a
    // partial kFilterLanes block. 2x12x8 -> 6@5x5 -> fc 9 -> 10: a
    // multi-channel, non-square conv window gather.
    nn::TopologySpec mlp;
    mlp.fc_hidden = {21, 13};
    mlp.seed = 53;
    nn::TopologySpec wide;
    wide.in_c = 2;
    wide.in_h = 12;
    wide.in_w = 8;
    wide.convs = {{6, 5}};
    wide.fc_hidden = {9};
    wide.seed = 59;

    ThreadPool pool1(1);
    ThreadPool pool3(3);
    Fnv1a h;
    size_t early_exits = 0;
    size_t progressive_images = 0;
    for (const nn::TopologySpec *spec : {&mlp, &wide}) {
        std::vector<nn::Tensor> images;
        std::vector<uint64_t> seeds;
        for (size_t i = 0; i < 5; ++i) {
            nn::Tensor img(spec->in_c, spec->in_h, spec->in_w);
            std::vector<float> &px = img.data();
            for (size_t j = 0; j < px.size(); ++j)
                px[j] = static_cast<float>((j * 37 + i * 11) % 29) / 28.0f;
            images.push_back(std::move(img));
            seeds.push_back(3000 + 43 * i);
        }
        for (core::AdderKind adder :
             {core::AdderKind::Apc, core::AdderKind::Mux}) {
            nn::Network net = nn::buildTopology(*spec);
            core::ScNetworkConfig cfg;
            cfg.layer_adders = {adder, adder, adder};
            cfg.input_c = spec->in_c;
            cfg.input_h = spec->in_h;
            cfg.input_w = spec->in_w;
            cfg.bitstream_len = 200; // 4 words, 8-bit tail
            cfg.stream_segment_words = 1;
            core::ScNetwork sc(net, cfg);
            for (core::EngineMode mode :
                 {core::EngineMode::Fused, core::EngineMode::Progressive,
                  core::EngineMode::Reference}) {
                core::PredictOptions opts;
                opts.mode = mode;
                opts.progressive_margin = 0.3;
                opts.progressive_min_bits = 64;
                for (ThreadPool *pool : {&pool1, &pool3}) {
                    std::vector<core::ForwardInfo> infos;
                    auto preds = sc.forwardBatch({images[2]}, {seeds[2]},
                                                 opts, pool, &infos);
                    addRun(h, preds, infos);
                    preds = sc.forwardBatch(images, seeds, opts, pool,
                                            &infos);
                    addRun(h, preds, infos);
                    if (mode == core::EngineMode::Progressive)
                        progressive_images += infos.size();
                    for (const auto &info : infos)
                        early_exits += info.early_exit;
                }
            }
        }
    }
    EXPECT_GT(early_exits, 0u);
    EXPECT_LT(early_exits, progressive_images);
    EXPECT_EQ(h.value(), 0x04c4f3484298ef1dull)
        << std::hex << "digest 0x" << h.value();
}

} // namespace
} // namespace scdcnn
