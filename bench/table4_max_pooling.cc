/**
 * @file
 * Table 4: relative result deviation of the hardware-oriented max
 * pooling block vs software max pooling (segment length c = 16).
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "blocks/pooling.h"
#include "common/table.h"
#include "sc/rng.h"
#include "sc/sng.h"

using namespace scdcnn;

namespace {

double
meanDeviation(size_t n_inputs, size_t len, int trials)
{
    double dev = 0;
    int used = 0;
    for (int t = 0; t < trials; ++t) {
        sc::SplitMix64 vals(3100 + t * 17 + n_inputs + len);
        sc::SngBank bank(900 + t);
        std::vector<sc::Bitstream> ins;
        for (size_t i = 0; i < n_inputs; ++i)
            ins.push_back(
                bank.bipolar(vals.nextInRange(-1.0, 1.0), len));
        double got =
            blocks::HardwareMaxPooling::compute(ins, 16).bipolar();
        double best = -1.0;
        for (const auto &s : ins)
            best = std::max(best, s.bipolar());
        // Relative deviation vs the true (stream-level) maximum.
        if (std::abs(best) < 0.05)
            continue; // avoid blowing up the relative metric near 0
        dev += std::abs(got - best) / std::abs(best);
        ++used;
    }
    return used > 0 ? dev / used : 0.0;
}

} // namespace

int
main()
{
    bench::banner("Table 4",
                  "Relative deviation of the hardware-oriented max "
                  "pooling block vs software max (c = 16).");
    // 1000 trials per cell, about 0.03 s in all. At 40 the n = 4 row
    // read 0.157/0.155/0.166/0.128, trial noise swamping the trend the
    // check below asserts; at 1000 its closest step (n = 4, L = 384 to
    // 512) is 0.002, at 4000 0.007.
    const int trials = static_cast<int>(bench::envSize(
        "SCDCNN_TABLE4_TRIALS", 1000));
    const size_t sizes[] = {4, 9, 16};
    const size_t lengths[] = {128, 256, 384, 512};
    const double paper[3][4] = {{0.127, 0.081, 0.066, 0.059},
                                {0.147, 0.099, 0.086, 0.074},
                                {0.166, 0.108, 0.097, 0.086}};

    TextTable t("Relative deviation of HW max pooling "
                "(paper values in parentheses)");
    t.header({"Input size", "L=128", "L=256", "L=384", "L=512"});
    double dev[3][4];
    for (int i = 0; i < 3; ++i) {
        std::vector<std::string> row = {
            TextTable::num(static_cast<long long>(sizes[i]))};
        for (int j = 0; j < 4; ++j) {
            dev[i][j] = meanDeviation(sizes[i], lengths[j], trials);
            row.push_back(TextTable::num(dev[i][j], 3) + " (" +
                          TextTable::num(paper[i][j], 3) + ")");
        }
        t.row(row);
    }
    t.print(std::cout);

    std::printf("\nShape check: deviation shrinks with longer streams "
                "in every row, as in the paper.\n");
    bool ok = true;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j + 1 < 4; ++j)
            if (dev[i][j + 1] >= dev[i][j]) {
                std::printf("FAIL: n=%zu deviation %.3f at L=%zu is not "
                            "below %.3f at L=%zu\n",
                            sizes[i], dev[i][j + 1], lengths[j + 1],
                            dev[i][j], lengths[j]);
                ok = false;
            }
    std::printf("Shape check %s.\n", ok ? "passed" : "FAILED");

    // The paper's second claim, that deviation grows with more
    // candidates, does not hold here: a known failure (DESIGN.md,
    // "Reconstruction notes"), reported but not gated.
    bool grows = true;
    for (int j = 0; j < 4; ++j)
        for (int i = 0; i + 1 < 3; ++i)
            grows = grows && dev[i + 1][j] > dev[i][j];
    std::printf("Candidate check (deviation grows with input size): %s",
                grows ? "holds" : "KNOWN FAILURE, n=4/9/16 read");
    if (!grows)
        for (int j = 0; j < 4; ++j)
            std::printf("%s %.3f/%.3f/%.3f at L=%zu", j == 0 ? "" : ",",
                        dev[0][j], dev[1][j], dev[2][j], lengths[j]);
    std::printf("\n");
    return ok ? 0 : 1;
}
