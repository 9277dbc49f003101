/**
 * @file
 * End-to-end demo: train (or load) the LeNet5 baseline, build an
 * SC-DCNN from it with a chosen Table 6 configuration, classify digits
 * in the stochastic domain, and print the hardware cost summary.
 *
 * Usage: lenet5_inference [config_no (1..12, default 12)] [images]
 */

#include <cstdio>
#include <cstdlib>

#include "core/metrics.h"
#include "core/sc_network.h"
#include "nn/trainer.h"

using namespace scdcnn;

int
main(int argc, char **argv)
{
    const int config_no = argc > 1 ? std::atoi(argv[1]) : 12;
    const size_t n_images =
        argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 30;
    const auto entries = core::table6Entries();
    if (config_no < 1 || config_no > static_cast<int>(entries.size())) {
        std::fprintf(stderr, "config number must be 1..12\n");
        return 1;
    }
    const core::Table6Entry &entry = entries[config_no - 1];

    std::printf("SC-DCNN LeNet5 inference, configuration No.%d (%s)\n\n",
                config_no, entry.config.describe().c_str());

    nn::Network net =
        nn::trainedLeNet5(entry.config.pooling, "data", "data");
    nn::Dataset train, test;
    nn::loadDigits("data", 1, n_images, train, test);

    core::ScNetwork sc_net(net, entry.config);
    std::printf("layer activation sizing: K = %u / %u / %u, "
                "gain ratios %.2f / %.2f / %.2f\n\n",
                sc_net.layerStateCount(0), sc_net.layerStateCount(1),
                sc_net.layerStateCount(2), sc_net.layerGain(0),
                sc_net.layerGain(1), sc_net.layerGain(2));

    size_t sc_correct = 0, float_correct = 0;
    for (size_t i = 0; i < test.size(); ++i) {
        const nn::Sample &s = test.samples[i];
        const size_t sc_pred = sc_net.predict(s.image, 1000 + i);
        const size_t float_pred = net.predict(s.image);
        sc_correct += sc_pred == s.label;
        float_correct += float_pred == s.label;
        if (i < 10) {
            std::printf("image %2zu: label %zu, float %zu, SC %zu %s\n",
                        i, s.label, float_pred, sc_pred,
                        sc_pred == s.label ? "" : "  <-- miss");
        }
    }
    std::printf("...\naccuracy over %zu images: SC %.1f%%, "
                "float %.1f%%\n\n", test.size(),
                100.0 * sc_correct / test.size(),
                100.0 * float_correct / test.size());

    // Progressive precision: re-run the same images with the margin
    // test enabled at two thresholds, so the latency/accuracy trade is
    // visible next to the full-length number. Effective bits translate
    // ~proportionally into latency (and, in hardware, energy).
    std::printf("progressive precision vs full L=%zu "
                "(same images/seeds):\n", entry.config.bitstream_len);
    for (double margin : {2.0, 4.0}) {
        core::ScNetworkConfig prog_cfg = entry.config;
        prog_cfg.progressive_margin = margin;
        // The default exit floor equals short configs' whole stream;
        // scale it so every Table 6 length can demonstrate the trade.
        prog_cfg.progressive_min_bits = prog_cfg.bitstream_len / 4;
        core::ScNetwork prog_net(net, prog_cfg);
        prog_net.setEngineMode(core::EngineMode::Progressive);
        size_t prog_correct = 0;
        uint64_t bits = 0;
        core::ForwardInfo info;
        for (size_t i = 0; i < test.size(); ++i) {
            const nn::Sample &s = test.samples[i];
            prog_correct +=
                prog_net.predict(s.image, 1000 + i, &info) ==
                s.label;
            bits += info.effective_bits;
        }
        const double avg_bits = static_cast<double>(bits) /
                                static_cast<double>(test.size());
        std::printf("  margin %.1f: accuracy %.1f%% (delta %+.1f%%), "
                    "avg %.0f bits (%.2fx fewer)\n", margin,
                    100.0 * prog_correct / test.size(),
                    100.0 * (static_cast<double>(prog_correct) -
                             static_cast<double>(sc_correct)) /
                        test.size(),
                    avg_bits,
                    static_cast<double>(entry.config.bitstream_len) /
                        avg_bits);
    }
    std::printf("\n");

    const auto hw_cfg = core::toHwConfig(entry.config);
    const auto cost = hw::networkCost(hw::lenet5Layers(hw_cfg), hw_cfg);
    std::printf("hardware summary (cost model): area %.1f mm2, power "
                "%.2f W, delay %.0f ns/image,\n  throughput %.0f "
                "images/s, %.0f images/s/mm2, %.0f images/J\n",
                cost.areaMm2(), cost.powerW(), cost.delayNs(),
                cost.throughputImagesPerSec(), cost.areaEfficiency(),
                cost.energyEfficiency());
    return 0;
}
