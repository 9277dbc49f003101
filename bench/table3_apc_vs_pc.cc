/**
 * @file
 * Table 3: relative errors of the APC-based inner product block
 * compared with the conventional (exact) parallel counter.
 *
 * Exits non-zero when the printed shape claim fails: every cell must
 * stay at or below 1 %, and at every stream length the 64-input error
 * must be below the 16-input one. Registered as a ctest (label
 * `paper`).
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "blocks/inner_product.h"
#include "common/table.h"
#include "sc/rng.h"

using namespace scdcnn;

namespace {

double
meanRelativeError(size_t n, size_t len, int trials)
{
    double rel = 0;
    for (int t = 0; t < trials; ++t) {
        sc::SplitMix64 vals(2200 + t * 53 + n + len);
        std::vector<double> xs(n), ws(n);
        for (size_t i = 0; i < n; ++i) {
            xs[i] = vals.nextDouble();
            ws[i] = vals.nextDouble();
        }
        // Identical streams to both counters isolates the APC error.
        sc::SngBank bank_a(800 + t);
        sc::SngBank bank_b(800 + t);
        auto apc =
            blocks::ApcInnerProduct::counts(xs, ws, len, bank_a, true);
        auto pc =
            blocks::ApcInnerProduct::counts(xs, ws, len, bank_b, false);
        double sum_apc = std::accumulate(apc.begin(), apc.end(), 0.0);
        double sum_pc = std::accumulate(pc.begin(), pc.end(), 0.0);
        rel += std::abs(sum_apc - sum_pc) / sum_pc;
    }
    return rel / trials;
}

} // namespace

int
main()
{
    bench::banner("Table 3",
                  "Relative error of the APC-based inner product vs "
                  "the conventional parallel counter.");
    const int trials = static_cast<int>(bench::envSize(
        "SCDCNN_TABLE3_TRIALS", 30));
    const size_t sizes[] = {16, 32, 64};
    const size_t lengths[] = {128, 256, 384, 512};
    const double paper[3][4] = {{1.01, 0.87, 0.88, 0.84},
                                {0.70, 0.61, 0.58, 0.57},
                                {0.49, 0.44, 0.44, 0.42}};

    TextTable t("Relative error %, APC vs conventional PC "
                "(paper values in parentheses)");
    t.header({"Input size", "L=128", "L=256", "L=384", "L=512"});
    double err_pct[3][4];
    for (int i = 0; i < 3; ++i) {
        std::vector<std::string> row = {
            TextTable::num(static_cast<long long>(sizes[i]))};
        for (int j = 0; j < 4; ++j) {
            err_pct[i][j] =
                100.0 * meanRelativeError(sizes[i], lengths[j], trials);
            row.push_back(TextTable::num(err_pct[i][j]) + " (" +
                          TextTable::num(paper[i][j]) + ")");
        }
        t.row(row);
    }
    t.print(std::cout);

    std::printf("\nShape check: relative error stays around or below "
                "1%% and shrinks with input size, at ~40%% fewer gates "
                "(see the cost model), matching Kim et al. and the "
                "paper.\n");
    bool ok = true;
    for (int j = 0; j < 4; ++j) {
        for (int i = 0; i < 3; ++i) {
            if (err_pct[i][j] > 1.0) {
                std::printf("FAIL: n=%zu L=%zu error %.3f%% > 1%%\n",
                            sizes[i], lengths[j], err_pct[i][j]);
                ok = false;
            }
        }
        if (err_pct[2][j] >= err_pct[0][j]) {
            std::printf("FAIL: L=%zu n=64 error %.3f%% is not below "
                        "n=16 error %.3f%%\n",
                        lengths[j], err_pct[2][j], err_pct[0][j]);
            ok = false;
        }
    }
    std::printf("Shape check %s.\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
}
