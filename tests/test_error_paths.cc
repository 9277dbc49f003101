/**
 * @file
 * Error-path and contract tests: the library promises to panic (abort)
 * on internal-invariant violations and to reject malformed inputs
 * loudly rather than corrupt results silently.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocks/feature_block.h"
#include "blocks/inner_product.h"
#include "blocks/pooling.h"
#include "core/sc_network.h"
#include "nn/layers.h"
#include "nn/network.h"
#include "nn/topology.h"
#include "sc/bitstream.h"
#include "sc/counter.h"
#include "sc/ops.h"
#include "sc/rng.h"
#include "sc/sng.h"

namespace scdcnn {
namespace {

using sc::Bitstream;

TEST(ErrorPaths, BitstreamIndexOutOfRangeAborts)
{
    Bitstream s(8);
    EXPECT_DEATH(s.get(8), "out of range");
    EXPECT_DEATH(s.set(100, true), "out of range");
}

TEST(ErrorPaths, BitstreamLengthMismatchAborts)
{
    Bitstream a(8);
    Bitstream b(16);
    EXPECT_DEATH(a & b, "length mismatch");
    EXPECT_DEATH(a.xnor(b), "length mismatch");
}

TEST(ErrorPaths, BadRangeAborts)
{
    Bitstream s(8);
    EXPECT_DEATH(s.countOnes(5, 3), "bad range");
    EXPECT_DEATH(s.countOnes(0, 9), "bad range");
}

TEST(ErrorPaths, SliceBeyondEndAborts)
{
    Bitstream s(8);
    EXPECT_DEATH(s.slice(4, 5), "out of range");
}

TEST(ErrorPaths, FromStringRejectsBadCharacters)
{
    EXPECT_DEATH(Bitstream::fromString("01x1"), "bad character");
}

TEST(ErrorPaths, EmptyOperandsAbort)
{
    EXPECT_DEATH(sc::orAdd({}), "no inputs");
    sc::Xoshiro256ss rng(1);
    EXPECT_DEATH(sc::muxAdd({}, rng), "no inputs");
    EXPECT_DEATH(sc::ParallelCounter::counts(
                     std::vector<const Bitstream *>{}),
                 "zero streams");
}

TEST(ErrorPaths, MuxSelectOutOfRangeAborts)
{
    Bitstream a = Bitstream::fromString("10");
    std::vector<uint32_t> sel = {0, 5};
    EXPECT_DEATH(sc::muxAddWithSelects({a}, sel), "out of range");
}

TEST(ErrorPaths, MismatchedInnerProductOperandsAbort)
{
    sc::SngBank bank(1);
    auto xs = blocks::encodeBipolar({0.1, 0.2}, 64, bank);
    auto ws = blocks::encodeBipolar({0.1}, 64, bank);
    EXPECT_DEATH(blocks::productStreams(xs, ws), "operand");
}

TEST(ErrorPaths, PoolingContractViolationsAbort)
{
    sc::Xoshiro256ss rng(2);
    EXPECT_DEATH(blocks::averagePooling({}, rng), "no inputs");
    std::vector<Bitstream> one = {Bitstream(32)};
    EXPECT_DEATH(blocks::HardwareMaxPooling::compute(one, 0),
                 "segment length");
    EXPECT_DEATH(blocks::HardwareMaxPooling::compute(one, 16, 5),
                 "out of range");
}

TEST(ErrorPaths, PreScaleBelowOneRejected)
{
    sc::SngBank bank(3);
    EXPECT_DEATH(blocks::OrInnerProduct::estimateUnipolar(
                     {0.5}, {0.5}, 0.5, 64, bank),
                 "pre-scale");
}

TEST(ErrorPaths, LfsrWidthOutOfRangeIsFatal)
{
    // fatal() exits with status 1 (user error, not a panic/abort).
    EXPECT_EXIT(sc::Lfsr(2), ::testing::ExitedWithCode(1),
                "unsupported");
    EXPECT_EXIT(sc::Lfsr(33), ::testing::ExitedWithCode(1),
                "unsupported");
}

TEST(ErrorPaths, FeatureBlockRejectsDegenerateConfigs)
{
    blocks::FebConfig cfg;
    cfg.n_inputs = 1;
    EXPECT_DEATH(blocks::FeatureBlock feb(cfg), "receptive field");
}

// --------------------------------- weight serialization round trips

namespace {

/** A small custom (non-LeNet) topology: 1 conv block + 1 hidden fc. */
nn::Network
customNet(uint64_t seed = 5)
{
    nn::TopologySpec spec;
    spec.in_h = spec.in_w = 12;
    spec.convs = {{3, 3}};
    spec.fc_hidden = {11};
    spec.n_classes = 6;
    spec.seed = seed;
    return nn::buildTopology(spec);
}

std::string
tempWeightsPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "scdcnn_weights_" + tag +
           ".bin";
}

} // namespace

TEST(WeightSerialization, RoundTripsOnACustomTopology)
{
    const std::string path = tempWeightsPath("roundtrip");
    nn::Network a = customNet(5);
    ASSERT_TRUE(a.saveWeights(path));

    // A structurally-equal net with different weights must come back
    // holding exactly the saved parameters.
    nn::Network b = customNet(99);
    ASSERT_TRUE(b.loadWeights(path));
    for (size_t i = 0; i < a.layerCount(); ++i) {
        auto *wa = a.layer(i).weights();
        auto *wb = b.layer(i).weights();
        ASSERT_EQ(wa == nullptr, wb == nullptr);
        if (wa != nullptr) {
            EXPECT_EQ(*wa, *wb) << "layer " << i;
        }
        auto *ba = a.layer(i).biases();
        auto *bb = b.layer(i).biases();
        if (ba != nullptr) {
            EXPECT_EQ(*ba, *bb) << "layer " << i;
        }
    }
    std::remove(path.c_str());
}

TEST(WeightSerialization, MissingFileLoadsFalse)
{
    nn::Network net = customNet();
    const nn::LoadResult r = net.loadWeights(
        tempWeightsPath("does_not_exist_anywhere"));
    EXPECT_FALSE(r);
    EXPECT_EQ(r.code, nn::LoadResult::Code::OpenFailed);
}

TEST(WeightSerialization, CorruptMagicLoadsFalse)
{
    const std::string path = tempWeightsPath("badmagic");
    nn::Network net = customNet();
    ASSERT_TRUE(net.saveWeights(path));
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        const uint32_t junk = 0xDEADBEEF;
        ASSERT_EQ(std::fwrite(&junk, sizeof(junk), 1, f), 1u);
        std::fclose(f);
    }
    const nn::LoadResult r = net.loadWeights(path);
    EXPECT_FALSE(r);
    EXPECT_EQ(r.code, nn::LoadResult::Code::BadMagic);
    EXPECT_EQ(r.actual, 0xDEADBEEFu);
    EXPECT_NE(r.message().find("bad_magic"), std::string::npos);
    std::remove(path.c_str());
}

TEST(WeightSerialization, CorruptPayloadReportsCrcMismatch)
{
    // Flip one bit in the middle of the file (a tensor payload byte):
    // the per-tensor CRC must catch it and name the tensor.
    const std::string path = tempWeightsPath("bitflip");
    nn::Network net = customNet();
    ASSERT_TRUE(net.saveWeights(path));
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        const long size = std::ftell(f);
        std::fseek(f, size / 2, SEEK_SET);
        int c = std::fgetc(f);
        ASSERT_NE(c, EOF);
        std::fseek(f, size / 2, SEEK_SET);
        std::fputc(c ^ 0x01, f);
        std::fclose(f);
    }
    nn::Network fresh = customNet(7);
    const nn::LoadResult r = fresh.loadWeights(path);
    EXPECT_FALSE(r);
    EXPECT_EQ(r.code, nn::LoadResult::Code::CrcMismatch);
    EXPECT_NE(r.tensor_index, nn::LoadResult::kNoTensor);
    EXPECT_NE(r.expected, r.actual);
    std::remove(path.c_str());
}

TEST(WeightSerialization, LegacyHeaderlessFilesStillLoad)
{
    // Pre-hardening files: magic 0x5CDC0001, then bare
    // count-prefixed float vectors with no checksums. Write one by
    // hand and load it back.
    const std::string path = tempWeightsPath("legacy");
    nn::Network a = customNet(5);
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const uint32_t magic = 0x5CDC0001;
        ASSERT_EQ(std::fwrite(&magic, sizeof(magic), 1, f), 1u);
        for (size_t i = 0; i < a.layerCount(); ++i) {
            for (auto *v : {a.layer(i).weights(), a.layer(i).biases()}) {
                if (v == nullptr)
                    continue;
                const auto n = static_cast<uint64_t>(v->size());
                ASSERT_EQ(std::fwrite(&n, sizeof(n), 1, f), 1u);
                ASSERT_EQ(std::fwrite(v->data(), sizeof(float),
                                      v->size(), f),
                          v->size());
            }
        }
        std::fclose(f);
    }
    nn::Network b = customNet(99);
    ASSERT_TRUE(b.loadWeights(path));
    for (size_t i = 0; i < a.layerCount(); ++i) {
        auto *wa = a.layer(i).weights();
        auto *wb = b.layer(i).weights();
        if (wa != nullptr) {
            EXPECT_EQ(*wa, *wb) << "layer " << i;
        }
    }
    std::remove(path.c_str());
}

TEST(WeightSerialization, TruncatedFileLoadsFalse)
{
    const std::string path = tempWeightsPath("truncated");
    nn::Network net = customNet();
    ASSERT_TRUE(net.saveWeights(path));

    // Re-write only the first half of the file.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    ASSERT_GT(size, 16);
    std::fseek(f, 0, SEEK_SET);
    std::vector<char> head(static_cast<size_t>(size) / 2);
    ASSERT_EQ(std::fread(head.data(), 1, head.size(), f), head.size());
    std::fclose(f);
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(head.data(), 1, head.size(), f), head.size());
    std::fclose(f);

    EXPECT_FALSE(net.loadWeights(path));
    std::remove(path.c_str());
}

TEST(WeightSerialization, ShapeMismatchLoadsFalse)
{
    // Weights saved from one topology must be refused by a different
    // one (the per-vector length headers disagree) — cleanly, with a
    // false return instead of silent corruption or a crash.
    const std::string path = tempWeightsPath("mismatch");
    nn::Network a = customNet();
    ASSERT_TRUE(a.saveWeights(path));

    nn::TopologySpec other;
    other.in_h = other.in_w = 12;
    other.convs = {{4, 3}}; // different channel count
    other.fc_hidden = {11};
    other.n_classes = 6;
    nn::Network b = nn::buildTopology(other);
    const nn::LoadResult r = b.loadWeights(path);
    EXPECT_FALSE(r);
    EXPECT_EQ(r.code, nn::LoadResult::Code::ShapeMismatch);
    EXPECT_NE(r.expected, r.actual);
    std::remove(path.c_str());
}

// ------------------------------------ topology plan rejection paths

TEST(TopologyValidation, EmptyNetworkRejected)
{
    nn::Network net;
    EXPECT_DEATH(nn::outlineNetworkStages(net), "empty network");
}

TEST(TopologyValidation, ConvWithoutPoolRejected)
{
    nn::Network net;
    net.add(std::make_unique<nn::ConvLayer>(1, 2, 3));
    net.add(std::make_unique<nn::TanhLayer>(0.35));
    net.add(std::make_unique<nn::FullyConnected>(50, 4));
    EXPECT_DEATH(nn::outlineNetworkStages(net),
                 "layer 0 .conv.*pool layer right after");
}

TEST(TopologyValidation, ConvBlockWithoutTanhRejected)
{
    nn::Network net;
    net.add(std::make_unique<nn::ConvLayer>(1, 2, 3));
    net.add(std::make_unique<nn::PoolLayer>(nn::PoolLayer::Mode::Max));
    net.add(std::make_unique<nn::FullyConnected>(50, 4));
    EXPECT_DEATH(nn::outlineNetworkStages(net),
                 "layer 0 .conv.*end with a tanh");
}

TEST(TopologyValidation, StrayPoolRejected)
{
    nn::Network net;
    net.add(std::make_unique<nn::PoolLayer>(nn::PoolLayer::Mode::Max));
    net.add(std::make_unique<nn::FullyConnected>(196, 4));
    EXPECT_DEATH(nn::outlineNetworkStages(net),
                 "layer 0 .pool.*inside a conv block");
}

TEST(TopologyValidation, StrayActivationRejected)
{
    nn::Network net;
    net.add(std::make_unique<nn::TanhLayer>(0.35));
    net.add(std::make_unique<nn::FullyConnected>(784, 4));
    EXPECT_DEATH(nn::outlineNetworkStages(net),
                 "layer 0 .tanh.*must close a conv block");
}

TEST(TopologyValidation, ConvAfterFcRejected)
{
    nn::Network net;
    net.add(std::make_unique<nn::FullyConnected>(784, 144));
    net.add(std::make_unique<nn::TanhLayer>(0.35));
    net.add(std::make_unique<nn::ConvLayer>(1, 2, 3));
    net.add(std::make_unique<nn::PoolLayer>(nn::PoolLayer::Mode::Max));
    net.add(std::make_unique<nn::TanhLayer>(0.35));
    net.add(std::make_unique<nn::FullyConnected>(50, 4));
    EXPECT_DEATH(nn::outlineNetworkStages(net),
                 "layer 2 .conv.*cannot follow a fully-connected");
}

TEST(TopologyValidation, HiddenFcWithoutTanhRejected)
{
    nn::Network net;
    net.add(std::make_unique<nn::FullyConnected>(784, 32));
    net.add(std::make_unique<nn::FullyConnected>(32, 4));
    EXPECT_DEATH(nn::outlineNetworkStages(net),
                 "layer 0 .fc.*followed by a tanh");
}

TEST(TopologyValidation, MissingOutputFcRejected)
{
    nn::Network net;
    net.add(std::make_unique<nn::ConvLayer>(1, 2, 3));
    net.add(std::make_unique<nn::PoolLayer>(nn::PoolLayer::Mode::Max));
    net.add(std::make_unique<nn::TanhLayer>(0.35));
    EXPECT_DEATH(nn::outlineNetworkStages(net),
                 "must end in a fully-connected output layer");
}

TEST(TopologyValidation, ChannelMismatchRejected)
{
    nn::Network net;
    net.add(std::make_unique<nn::ConvLayer>(3, 2, 3)); // input is 1ch
    net.add(std::make_unique<nn::PoolLayer>(nn::PoolLayer::Mode::Max));
    net.add(std::make_unique<nn::TanhLayer>(0.35));
    net.add(std::make_unique<nn::FullyConnected>(50, 4));
    EXPECT_DEATH(nn::deriveNetworkPlan(net, 1, 12, 12),
                 "layer 0 .conv.*expects 3 input channels");
}

TEST(TopologyValidation, KernelLargerThanInputRejected)
{
    nn::Network net;
    net.add(std::make_unique<nn::ConvLayer>(1, 2, 5));
    net.add(std::make_unique<nn::PoolLayer>(nn::PoolLayer::Mode::Max));
    net.add(std::make_unique<nn::TanhLayer>(0.35));
    net.add(std::make_unique<nn::FullyConnected>(8, 4));
    EXPECT_DEATH(nn::deriveNetworkPlan(net, 1, 4, 4),
                 "layer 0 .conv.*does not fit");
}

TEST(TopologyValidation, UnpoolableConvOutputRejected)
{
    nn::Network net;
    net.add(std::make_unique<nn::ConvLayer>(1, 2, 4)); // even kernel
    net.add(std::make_unique<nn::PoolLayer>(nn::PoolLayer::Mode::Max));
    net.add(std::make_unique<nn::TanhLayer>(0.35));
    net.add(std::make_unique<nn::FullyConnected>(32, 4));
    EXPECT_DEATH(nn::deriveNetworkPlan(net, 1, 12, 12),
                 "layer 0 .conv.*not 2x2 poolable");
}

TEST(TopologyValidation, FcFanInMismatchRejected)
{
    nn::Network net;
    net.add(std::make_unique<nn::FullyConnected>(100, 4)); // 144 flat
    EXPECT_DEATH(nn::deriveNetworkPlan(net, 1, 12, 12),
                 "layer 0 .fc.*expects 100 inputs.*flattens to 144");
}

TEST(TopologyValidation, EngineRejectsWrongImageGeometry)
{
    // Construction validates the network against the configured input
    // geometry; predict validates each image against the plan.
    nn::TopologySpec spec;
    spec.in_h = spec.in_w = 12;
    spec.fc_hidden = {8};
    spec.n_classes = 4;
    nn::Network net = nn::buildTopology(spec);
    core::ScNetworkConfig cfg;
    cfg.bitstream_len = 64;
    cfg.input_h = cfg.input_w = 12;
    core::ScNetwork sc(net, cfg);
    const nn::Tensor wrong(1, 28, 28);
    EXPECT_DEATH(sc.predict(wrong, 1), "expected a 1x12x12 image");
}

TEST(TopologyValidation, ApcFanInOverFoldCapacityRejected)
{
    // A 4x48x48 input flattens to 9216 taps: with the bias, more
    // product lines than the carry-save fold's 13 planes can count
    // (8191). An APC stage that wide, hidden or the output layer, is
    // rejected when the network is built, not inside a pool worker on
    // the first cycle whose products are mostly 1.
    nn::TopologySpec spec;
    spec.in_c = 4;
    spec.in_h = spec.in_w = 48;
    spec.fc_hidden = {4};
    spec.n_classes = 2;
    core::ScNetworkConfig cfg;
    cfg.bitstream_len = 64;
    cfg.input_c = 4;
    cfg.input_h = cfg.input_w = 48;
    const nn::Network hidden_fc = nn::buildTopology(spec);
    EXPECT_DEATH(core::ScNetwork(hidden_fc, cfg),
                 "layer 0 .fc.: 9217 APC inputs.*8191 lines");

    spec.fc_hidden.clear();
    const nn::Network output_only = nn::buildTopology(spec);
    EXPECT_DEATH(core::ScNetwork(output_only, cfg),
                 "layer 0 .output fc.: 9217 APC inputs.*8191 lines");
}

TEST(TopologyValidation, MuxFanInOverSelectRangeRejected)
{
    // A 1x1100x60 input flattens to 66000 taps: with the bias, more MUX
    // inputs than the uint16_t select indices can address (65536). The
    // stage is rejected when the network is built, not inside a pool
    // worker drawing the first forward pass's selects.
    nn::TopologySpec spec;
    spec.in_h = 1100;
    spec.in_w = 60;
    spec.fc_hidden = {2};
    spec.n_classes = 2;
    core::ScNetworkConfig cfg;
    cfg.bitstream_len = 64;
    cfg.input_h = 1100;
    cfg.input_w = 60;
    cfg.layer_adders = {core::AdderKind::Mux, core::AdderKind::Mux,
                        core::AdderKind::Mux};
    const nn::Network net = nn::buildTopology(spec);
    EXPECT_DEATH(core::ScNetwork(net, cfg),
                 "layer 0 .fc.: 66001 MUX inputs.*65536-entry select range");
}

} // namespace
} // namespace scdcnn
