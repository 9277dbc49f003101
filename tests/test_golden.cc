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
        cfg.batch_stream_segment_words = 3; // one full, one partial
        core::ScNetwork sc(net, cfg);
        for (core::EngineMode mode :
             {core::EngineMode::Fused, core::EngineMode::Progressive}) {
            core::PredictOptions opts;
            opts.mode = mode;
            opts.progressive_margin = 0.7;
            opts.progressive_min_bits = 64;
            for (ThreadPool *pool : {&pool1, &pool3}) {
                std::vector<core::ForwardInfo> infos;
                for (size_t i : {size_t{0}, size_t{4}}) {
                    const auto preds = sc.forwardBatch(
                        {images[i]}, {seeds[i]}, opts, pool, &infos);
                    addRun(h, preds, infos);
                }
                auto preds = sc.forwardBatch(first3, seeds3, opts, pool,
                                             &infos);
                addRun(h, preds, infos);
                preds = sc.forwardBatch(images, seeds, opts, pool, &infos);
                addRun(h, preds, infos);
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

} // namespace
} // namespace scdcnn
