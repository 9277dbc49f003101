/**
 * @file
 * Table 2: absolute errors of the MUX-based inner product block across
 * input sizes and bit-stream lengths. Exits non-zero when the printed
 * shape claim fails: error must grow with input size at every L and
 * shrink with L at every input size.
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "blocks/inner_product.h"
#include "common/table.h"
#include "sc/rng.h"

using namespace scdcnn;

namespace {

double
meanAbsError(size_t n, size_t len, int trials)
{
    double err = 0;
    for (int t = 0; t < trials; ++t) {
        sc::SplitMix64 vals(1000 + t * 37 + n + len);
        std::vector<double> xs(n), ws(n);
        for (size_t i = 0; i < n; ++i) {
            xs[i] = vals.nextInRange(-1.0, 1.0);
            ws[i] = vals.nextInRange(-1.0, 1.0);
        }
        sc::SngBank bank(700 + t);
        err += std::abs(
            blocks::MuxInnerProduct::estimate(xs, ws, len, bank) -
            blocks::innerProductReference(xs, ws));
    }
    return err / trials;
}

} // namespace

int
main()
{
    bench::banner("Table 2",
                  "Absolute errors of the MUX-based inner product "
                  "block vs input size and bit-stream length.");
    const int trials = static_cast<int>(bench::envSize(
        "SCDCNN_TABLE2_TRIALS", 30));
    const size_t sizes[] = {16, 32, 64};
    const size_t lengths[] = {512, 1024, 2048, 4096};
    const double paper[3][4] = {{0.54, 0.39, 0.28, 0.21},
                                {1.18, 0.77, 0.56, 0.38},
                                {2.35, 1.58, 1.19, 0.79}};

    TextTable t("Absolute error of MUX inner product "
                "(paper values in parentheses)");
    t.header({"Input size", "L=512", "L=1024", "L=2048", "L=4096"});
    double err[3][4];
    for (int i = 0; i < 3; ++i) {
        std::vector<std::string> row = {
            TextTable::num(static_cast<long long>(sizes[i]))};
        for (int j = 0; j < 4; ++j) {
            err[i][j] = meanAbsError(sizes[i], lengths[j], trials);
            row.push_back(TextTable::num(err[i][j]) + " (" +
                          TextTable::num(paper[i][j]) + ")");
        }
        t.row(row);
    }
    t.print(std::cout);

    std::printf("\nShape check: error grows with input size (more "
                "dropped bits) and shrinks roughly as 1/sqrt(L), as in "
                "the paper.\n");
    // A failed claim goes to stderr, so a passing run prints the table
    // alone.
    bool ok = true;
    for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 4; ++j) {
            if (i + 1 < 3 && err[i + 1][j] <= err[i][j]) {
                std::fprintf(stderr,
                             "FAIL: L=%zu n=%zu error %.3f does not "
                             "exceed n=%zu error %.3f\n",
                             lengths[j], sizes[i + 1], err[i + 1][j],
                             sizes[i], err[i][j]);
                ok = false;
            }
            if (j + 1 < 4 && err[i][j + 1] >= err[i][j]) {
                std::fprintf(stderr,
                             "FAIL: n=%zu L=%zu error %.3f is not below "
                             "L=%zu error %.3f\n",
                             sizes[i], lengths[j + 1], err[i][j + 1],
                             lengths[j], err[i][j]);
                ok = false;
            }
        }
    }
    if (!ok)
        std::fprintf(stderr, "Shape check FAILED.\n");
    return ok ? 0 : 1;
}
