/**
 * @file
 * Cross-module integration and property tests: consistency between the
 * stream-level blocks and the network engine, the pooling counter
 * modes, signed average pooling, and the fused product-count paths.
 */

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "blocks/feature_block.h"
#include "blocks/inner_product.h"
#include "blocks/pooling.h"
#include "core/sc_network.h"
#include "nn/trainer.h"
#include "sc/counter.h"
#include "sc/ops.h"
#include "sc/sng.h"

namespace scdcnn {
namespace {

TEST(FusedProductCounts, MatchExplicitXnorThenCount)
{
    sc::SngBank bank(11);
    sc::SplitMix64 vals(3);
    std::vector<sc::Bitstream> xs, ws;
    for (int i = 0; i < 20; ++i) {
        xs.push_back(bank.bipolar(vals.nextInRange(-1, 1), 300));
        ws.push_back(bank.bipolar(vals.nextInRange(-1, 1), 300));
    }
    std::vector<const sc::Bitstream *> xp, wp;
    std::vector<sc::Bitstream> products;
    for (int i = 0; i < 20; ++i) {
        xp.push_back(&xs[i]);
        wp.push_back(&ws[i]);
        products.push_back(sc::xnorMultiply(xs[i], ws[i]));
    }
    EXPECT_EQ(blocks::ApcInnerProduct::countsFused(xp, wp, false),
              sc::ParallelCounter::counts(products));
    EXPECT_EQ(blocks::ApcInnerProduct::countsFused(xp, wp, true),
              sc::ApproxParallelCounter::counts(products));
}

TEST(FusedProductCounts, TailBitsDoNotLeak)
{
    // Length not a multiple of 64: XNOR(0,0)=1 must not count past L.
    sc::Bitstream a(70), b(70);
    std::vector<const sc::Bitstream *> xp = {&a}, wp = {&b};
    auto counts = blocks::ApcInnerProduct::countsFused(xp, wp, false);
    ASSERT_EQ(counts.size(), 70u);
    uint64_t total = std::accumulate(counts.begin(), counts.end(),
                                     uint64_t{0});
    EXPECT_EQ(total, 70u); // every in-range cycle counts exactly 1
}

TEST(BinaryAveragePoolingSigned, TruncatesTowardZero)
{
    // counts (2,3,4,5) with n=8: signed values (-4,-2,0,2), sum -4,
    // /4 = -1 exactly. counts (5,5,5,2) -> (2,2,2,-4): sum 2 -> 0.
    std::vector<std::vector<uint16_t>> counts = {
        {2, 5}, {3, 5}, {4, 5}, {5, 2}};
    auto steps = blocks::binaryAveragePoolingSigned(counts, 8);
    ASSERT_EQ(steps.size(), 2u);
    EXPECT_EQ(steps[0], -1);
    EXPECT_EQ(steps[1], 0);
}

TEST(BinaryAveragePoolingSigned, UnbiasedAroundZero)
{
    // Symmetric counts give symmetric steps (no constant drift).
    sc::SngBank bank(21);
    std::vector<std::vector<uint16_t>> counts;
    for (int j = 0; j < 4; ++j) {
        std::vector<sc::Bitstream> lines;
        for (int i = 0; i < 16; ++i)
            lines.push_back(bank.bipolar(0.0, 4096));
        counts.push_back(sc::ParallelCounter::counts(lines));
    }
    auto steps = blocks::binaryAveragePoolingSigned(counts, 16);
    double mean = 0;
    for (int s : steps)
        mean += s;
    mean /= static_cast<double>(steps.size());
    EXPECT_NEAR(mean, 0.0, 0.15);
}

TEST(AccumulativeMaxPooling, ResolvesSmallSeparations)
{
    // Candidates separated by 0.04 in stream value: per-segment counts
    // cannot tell them apart, accumulated counters can.
    double err_reset = 0, err_accum = 0;
    const int trials = 15;
    for (int t = 0; t < trials; ++t) {
        sc::SngBank bank(400 + t);
        std::vector<sc::Bitstream> ins = {bank.bipolar(0.08, 2048),
                                          bank.bipolar(0.04, 2048),
                                          bank.bipolar(0.00, 2048),
                                          bank.bipolar(-0.04, 2048)};
        err_reset += std::abs(
            blocks::HardwareMaxPooling::compute(ins, 16, 0, false)
                .bipolar() - 0.08);
        err_accum += std::abs(
            blocks::HardwareMaxPooling::compute(ins, 16, 0, true)
                .bipolar() - 0.08);
    }
    EXPECT_LT(err_accum, err_reset);
}

TEST(AccumulativeMaxPooling, MatchesResetModeOnWellSeparatedInputs)
{
    // With large separations both modes find the max.
    sc::SngBank bank(31);
    std::vector<sc::Bitstream> ins = {bank.bipolar(0.9, 2048),
                                      bank.bipolar(-0.5, 2048),
                                      bank.bipolar(-0.2, 2048),
                                      bank.bipolar(0.1, 2048)};
    double reset =
        blocks::HardwareMaxPooling::compute(ins, 16, 0, false).bipolar();
    double accum =
        blocks::HardwareMaxPooling::compute(ins, 16, 0, true).bipolar();
    EXPECT_NEAR(reset, 0.9, 0.1);
    EXPECT_NEAR(accum, 0.9, 0.1);
}

TEST(BinaryMaxPoolingAccumulative, LocksOntoLargestSequence)
{
    // Two count sequences whose means differ by 0.5 per cycle.
    sc::SngBank bank(41);
    std::vector<std::vector<uint16_t>> counts;
    for (double v : {0.1, -0.1}) {
        std::vector<sc::Bitstream> lines;
        for (int i = 0; i < 8; ++i)
            lines.push_back(bank.bipolar(v, 2048));
        counts.push_back(sc::ParallelCounter::counts(lines));
    }
    auto pooled =
        blocks::BinaryMaxPooling::compute(counts, 16, 1, true);
    // Decode the pooled sequence: should be close to the larger
    // input's sum (8 * 0.1 = 0.8 in bipolar sum units).
    double total = 0;
    for (auto c : pooled)
        total += 2.0 * c - 8.0;
    EXPECT_NEAR(total / 2048.0, 0.8, 0.25);
}

TEST(ScNetworkIntegration, WeightCompensationKeepsLogitsAligned)
{
    // An SC network whose MUX layer attenuates by g must still rank
    // classes like the float network on easy inputs.
    nn::Dataset train = nn::DigitDataset::generate(1200, 50);
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Average, 9);
    nn::TrainConfig tc;
    tc.epochs = 4;
    nn::Trainer(net, tc).train(train);

    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Average;
    cfg.layer_adders = {core::AdderKind::Mux, core::AdderKind::Apc,
                        core::AdderKind::Apc};
    cfg.bitstream_len = 1024;
    core::ScNetwork sc_net(net, cfg);

    nn::Dataset test = nn::DigitDataset::generate(30, 51);
    size_t agree = 0;
    for (size_t i = 0; i < test.size(); ++i) {
        if (sc_net.predict(test.samples[i].image, 100 + i) ==
            net.predict(test.samples[i].image))
            ++agree;
    }
    // The SC network should agree with the float network on a clear
    // majority of inputs.
    EXPECT_GE(agree, test.size() * 2 / 3);
}

TEST(ScNetworkIntegration, QuantizationIsAppliedInsideTheEngine)
{
    // A 2-bit weight configuration must behave very differently from a
    // 10-bit one — evidence the Section 5.2 storage path is live.
    nn::Dataset train = nn::DigitDataset::generate(800, 60);
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Average, 10);
    nn::TrainConfig tc;
    tc.epochs = 3;
    nn::Trainer(net, tc).train(train);
    nn::Dataset test = nn::DigitDataset::generate(30, 61);

    core::ScNetworkConfig coarse;
    coarse.pooling = nn::PoolingMode::Average;
    coarse.bitstream_len = 512;
    coarse.weight_bits = {2, 2, 2};
    core::ScNetworkConfig fine = coarse;
    fine.weight_bits = {10, 10, 10};

    double err_coarse =
        core::ScNetwork(net, coarse).errorRate(test, test.size());
    double err_fine =
        core::ScNetwork(net, fine).errorRate(test, test.size());
    EXPECT_GE(err_coarse + 1e-9, err_fine);
}

TEST(FeatureBlockIntegration, MatchesScNetworkActivationOrdering)
{
    // The FEB-level APC-avg block and Btanh agree on saturation signs
    // for strongly positive/negative fields.
    blocks::FebConfig cfg;
    cfg.kind = blocks::FebKind::ApcAvgBtanh;
    cfg.n_inputs = 16;
    cfg.length = 1024;
    blocks::FeatureBlock feb(cfg);
    std::vector<std::vector<double>> xs(4, std::vector<double>(16, 0.8));
    std::vector<std::vector<double>> ws_pos(4,
                                            std::vector<double>(16, 0.8));
    std::vector<std::vector<double>> ws_neg(
        4, std::vector<double>(16, -0.8));
    EXPECT_GT(feb.evaluate(xs, ws_pos, 1), 0.8);
    EXPECT_LT(feb.evaluate(xs, ws_neg, 2), -0.8);
}

} // namespace
} // namespace scdcnn
