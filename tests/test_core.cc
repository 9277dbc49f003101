/**
 * @file
 * Tests for the SC-DCNN core: configurations, the bit-level network,
 * the Section 6.3 optimizer, and the metrics assembly.
 */

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/optimizer.h"
#include "core/sc_network.h"
#include "nn/trainer.h"

namespace scdcnn {
namespace core {
namespace {

/** A trained mini network shared by the expensive tests. */
nn::Network &
trainedMini(nn::PoolingMode pooling)
{
    static std::map<int, nn::Network> cache;
    int key = pooling == nn::PoolingMode::Max ? 0 : 1;
    auto it = cache.find(key);
    if (it == cache.end()) {
        nn::Dataset train = nn::DigitDataset::generate(1500, 5);
        nn::Network net = nn::buildMiniLeNet(pooling, 1);
        nn::TrainConfig cfg;
        cfg.epochs = pooling == nn::PoolingMode::Max ? 3 : 5;
        nn::Trainer(net, cfg).train(train);
        it = cache.emplace(key, std::move(net)).first;
    }
    return it->second;
}

TEST(ScConfig, FebKindCombinesAdderAndPooling)
{
    ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.layer_adders = {AdderKind::Mux, AdderKind::Apc, AdderKind::Apc};
    EXPECT_EQ(cfg.febKindFor(0, true), blocks::FebKind::MuxMaxStanh);
    EXPECT_EQ(cfg.febKindFor(1, true), blocks::FebKind::ApcMaxBtanh);
    // Layer2 is fully connected: no pooling stage.
    EXPECT_EQ(cfg.febKindFor(2, false), blocks::FebKind::ApcAvgBtanh);

    cfg.pooling = nn::PoolingMode::Average;
    EXPECT_EQ(cfg.febKindFor(0, true), blocks::FebKind::MuxAvgStanh);
    EXPECT_EQ(cfg.febKindFor(1, true), blocks::FebKind::ApcAvgBtanh);
}

TEST(ScConfig, DescribeIsReadable)
{
    ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.layer_adders = {AdderKind::Mux, AdderKind::Mux, AdderKind::Apc};
    cfg.bitstream_len = 512;
    EXPECT_EQ(cfg.describe(), "max L=512 MUX-MUX-APC");
}

TEST(ScConfig, Table6HasTwelveEntriesMatchingThePaper)
{
    auto entries = table6Entries();
    ASSERT_EQ(entries.size(), 12u);
    // Spot-check a few cells against the printed table.
    EXPECT_EQ(entries[0].number, 1);
    EXPECT_EQ(entries[0].config.bitstream_len, 1024u);
    EXPECT_EQ(entries[0].config.layer_adders[0], AdderKind::Mux);
    EXPECT_DOUBLE_EQ(entries[0].paper_area_mm2, 19.1);
    EXPECT_EQ(entries[10].number, 11);
    EXPECT_EQ(entries[10].config.pooling, nn::PoolingMode::Average);
    EXPECT_EQ(entries[10].config.bitstream_len, 256u);
    EXPECT_DOUBLE_EQ(entries[10].paper_power_w, 1.53);
    // Every configuration keeps APC at the fully-connected layer.
    for (const auto &e : entries)
        EXPECT_EQ(e.config.layer_adders[2], AdderKind::Apc);
}

TEST(ScConfig, HwConfigCarriesAllKnobs)
{
    ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.layer_adders = {AdderKind::Apc, AdderKind::Mux, AdderKind::Apc};
    cfg.bitstream_len = 256;
    cfg.weight_bits = {7, 7, 6};
    auto hw_cfg = toHwConfig(cfg);
    EXPECT_EQ(hw_cfg.bitstream_len, 256u);
    EXPECT_EQ(hw_cfg.layer_kinds[0], blocks::FebKind::ApcMaxBtanh);
    EXPECT_EQ(hw_cfg.layer_kinds[1], blocks::FebKind::MuxMaxStanh);
    EXPECT_EQ(hw_cfg.weight_bits[2], 6u);
}

TEST(ScNetwork, PredictIsDeterministicPerSeed)
{
    nn::Network &net = trainedMini(nn::PoolingMode::Average);
    ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Average;
    cfg.bitstream_len = 256;
    ScNetwork sc_net(net, cfg);
    nn::Tensor img = nn::DigitDataset::render(3, 77);
    EXPECT_EQ(sc_net.predict(img, 9), sc_net.predict(img, 9));
}

TEST(ScNetwork, ApcConfigTracksFloatNetwork)
{
    nn::Network &net = trainedMini(nn::PoolingMode::Average);
    nn::Dataset test = nn::DigitDataset::generate(40, 6);
    const double sw = nn::Trainer::errorRate(net, test);

    ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Average;
    cfg.layer_adders = {AdderKind::Apc, AdderKind::Apc, AdderKind::Apc};
    cfg.bitstream_len = 1024;
    ScNetwork sc_net(net, cfg);
    const double err = sc_net.errorRate(test, test.size());
    EXPECT_LT(err, sw + 0.12);
}

TEST(ScNetwork, LayerGainsAreSaneAndMuxAtFcIsClamped)
{
    nn::Network &net = trainedMini(nn::PoolingMode::Average);
    ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Average;
    cfg.layer_adders = {AdderKind::Mux, AdderKind::Apc, AdderKind::Apc};
    cfg.bitstream_len = 1024;
    ScNetwork sc_net(net, cfg);
    for (size_t l = 0; l < 3; ++l) {
        EXPECT_GT(sc_net.layerGain(l), 0.0);
        EXPECT_LE(sc_net.layerGain(l), 1.0);
        EXPECT_GE(sc_net.layerStateCount(l), 2u);
    }
}

TEST(ScNetwork, ShorterStreamsDegradeAccuracy)
{
    nn::Network &net = trainedMini(nn::PoolingMode::Average);
    nn::Dataset test = nn::DigitDataset::generate(40, 7);
    ScNetworkConfig long_cfg;
    long_cfg.pooling = nn::PoolingMode::Average;
    long_cfg.bitstream_len = 1024;
    ScNetworkConfig short_cfg = long_cfg;
    short_cfg.bitstream_len = 64;
    double err_long =
        ScNetwork(net, long_cfg).errorRate(test, test.size());
    double err_short =
        ScNetwork(net, short_cfg).errorRate(test, test.size());
    EXPECT_LE(err_long, err_short + 0.05);
}

TEST(Optimizer, HalvesWhileThresholdHolds)
{
    // Fake evaluator: inaccuracy = 0.001 * (1024 / L); threshold 0.005
    // admits L down to 256.
    ScNetworkConfig cfg;
    OptimizerSettings settings;
    settings.threshold = 0.005;
    settings.start_len = 1024;
    settings.min_len = 32;
    auto result = optimizeDesigns(
        {cfg}, settings, [](const ScNetworkConfig &c) {
            return 0.001 * 1024.0 /
                   static_cast<double>(c.bitstream_len);
        });
    ASSERT_EQ(result.size(), 1u);
    EXPECT_EQ(result[0].config.bitstream_len, 256u);
    EXPECT_NEAR(result[0].inaccuracy, 0.004, 1e-12);
    EXPECT_EQ(result[0].evaluations, 4u); // 1024, 512, 256, 128(fail)
}

TEST(Optimizer, DropsCandidatesFailingAtStart)
{
    ScNetworkConfig cfg;
    OptimizerSettings settings;
    settings.threshold = 0.01;
    auto result = optimizeDesigns(
        {cfg}, settings,
        [](const ScNetworkConfig &) { return 0.5; });
    EXPECT_TRUE(result.empty());
}

TEST(Optimizer, RespectsMinimumLength)
{
    ScNetworkConfig cfg;
    OptimizerSettings settings;
    settings.threshold = 1.0; // everything passes
    settings.start_len = 256;
    settings.min_len = 64;
    auto result = optimizeDesigns(
        {cfg}, settings,
        [](const ScNetworkConfig &) { return 0.0; });
    ASSERT_EQ(result.size(), 1u);
    EXPECT_EQ(result[0].config.bitstream_len, 64u);
}

TEST(Metrics, Table6RowJoinsAccuracyAndCost)
{
    auto entries = table6Entries();
    Table6Row row = makeTable6Row(11, entries[10].config, 0.0336);
    EXPECT_EQ(row.number, 11);
    EXPECT_EQ(row.pooling, "Average");
    EXPECT_EQ(row.layer0, "MUX");
    EXPECT_EQ(row.layer1, "APC");
    EXPECT_NEAR(row.inaccuracy_pct, 3.36, 1e-9);
    EXPECT_DOUBLE_EQ(row.delay_ns, 1280.0);
    EXPECT_GT(row.area_mm2, 5.0);
    EXPECT_LT(row.area_mm2, 40.0);
}

TEST(Metrics, Table7ReferenceRowsMatchPaperConstants)
{
    auto rows = table7ReferenceRows();
    ASSERT_EQ(rows.size(), 7u);
    EXPECT_EQ(rows[0].platform, "2x Intel Xeon W5580");
    EXPECT_DOUBLE_EQ(rows[0].throughput, 656);
    EXPECT_EQ(rows[4].platform, "TrueNorth");
    EXPECT_DOUBLE_EQ(rows[4].power_w, 0.18);
}

TEST(Metrics, ScdcnnRowUsesCostModel)
{
    auto entries = table6Entries();
    PlatformRow row =
        scdcnnPlatformRow("SC-DCNN (No.11)", entries[10].config, 96.6);
    EXPECT_NEAR(row.throughput, 781250.0, 1.0);
    EXPECT_GT(row.energy_eff, 1e4);
    EXPECT_EQ(row.platform_type, "ASIC");
}

TEST(Metrics, LayerNoiseInjectionDegradesMonotonically)
{
    nn::Network &net = trainedMini(nn::PoolingMode::Max);
    nn::Dataset test = nn::DigitDataset::generate(120, 8);
    const double clean = nn::Trainer::errorRate(net, test);
    const double small =
        errorRateWithLayerNoise(net, test, 0, 0.05, 3);
    const double large = errorRateWithLayerNoise(net, test, 0, 1.5, 3);
    EXPECT_LE(clean, small + 0.03);
    EXPECT_GT(large, small);
}

} // namespace
} // namespace core
} // namespace scdcnn
