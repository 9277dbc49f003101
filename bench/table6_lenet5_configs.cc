/**
 * @file
 * Table 6: the twelve LeNet5 SC-DCNN configurations — measured network
 * inaccuracy (bit-level SC inference vs the software baseline) joined
 * with the hardware cost model's area/power/delay/energy.
 *
 * SCDCNN_EVAL_IMAGES bounds the bit-level evaluation cost (default 60;
 * note the error-rate granularity is 1/images).
 */

#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/metrics.h"
#include "core/sc_network.h"
#include "nn/trainer.h"

using namespace scdcnn;

int
main()
{
    bench::banner("Table 6",
                  "Comparison among the twelve SC-DCNN LeNet5 "
                  "configurations (measured vs paper).");
    const std::string dir = bench::dataDir();
    const size_t n_eval = bench::evalImages();

    nn::Network net_max = nn::trainedLeNet5(nn::PoolingMode::Max, dir,
                                            dir);
    nn::Network net_avg = nn::trainedLeNet5(nn::PoolingMode::Average,
                                            dir, dir);
    nn::Dataset train, test;
    nn::loadDigits(dir, 1, n_eval, train, test);
    const double sw_max = nn::Trainer::errorRate(net_max, test);
    const double sw_avg = nn::Trainer::errorRate(net_avg, test);
    std::printf("software baselines: max-pooling %.2f%%, "
                "average-pooling %.2f%% (paper: 1.53%% / 2.24%% on "
                "MNIST; see DESIGN.md for the dataset substitution)\n",
                sw_max * 100.0, sw_avg * 100.0);
    std::printf("evaluating %zu images per configuration "
                "(SCDCNN_EVAL_IMAGES)\n\n", n_eval);

    TextTable t("Table 6 (measured, paper value in parentheses)");
    t.header({"No.", "Pooling", "Bit stream", "L0", "L1", "L2",
              "Inaccuracy (%)", "Area (mm2)", "Power (W)", "Delay (ns)",
              "Energy (uJ)"});

    for (const core::Table6Entry &e : core::table6Entries()) {
        const bool is_max = e.config.pooling == nn::PoolingMode::Max;
        nn::Network &base = is_max ? net_max : net_avg;
        const double sw = is_max ? sw_max : sw_avg;

        core::ScNetwork sc_net(base, e.config);
        const double err = sc_net.errorRate(test, n_eval);
        const double inacc = err - sw;
        core::Table6Row row =
            core::makeTable6Row(e.number, e.config, inacc);

        t.row({TextTable::num(static_cast<long long>(row.number)),
               row.pooling,
               TextTable::num(
                   static_cast<long long>(row.bitstream_len)),
               row.layer0, row.layer1, row.layer2,
               TextTable::num(row.inaccuracy_pct) + " (" +
                   TextTable::num(e.paper_inaccuracy_pct) + ")",
               TextTable::num(row.area_mm2, 1) + " (" +
                   TextTable::num(e.paper_area_mm2, 1) + ")",
               TextTable::num(row.power_w) + " (" +
                   TextTable::num(e.paper_power_w) + ")",
               TextTable::num(row.delay_ns, 0) + " (" +
                   TextTable::num(e.paper_delay_ns, 0) + ")",
               TextTable::num(row.energy_uj, 1) + " (" +
                   TextTable::num(e.paper_energy_uj, 1) + ")"});
        std::printf("finished No.%d (%s)\n", e.number,
                    e.config.describe().c_str());
    }
    std::printf("\n");
    t.print(std::cout);

    std::printf(
        "\nShape checks (paper Table 6): delay is exactly 5 ns x L; "
        "configurations with more APC layers are larger, hungrier and "
        "more accurate; shorter bit-streams cut energy "
        "proportionally.\nKnown deviation: configurations with MUX at "
        "Layer1 (No.1/3/5) degrade far more here than in the paper — "
        "a flat 500-input MUX drops 499/500 of the products per cycle, "
        "consistent with the paper's own Table 2 error data (see "
        "DESIGN.md, \"Reconstruction notes\").\n");
    return 0;
}
