/**
 * @file
 * Table 5: state count K vs relative inaccuracy of Stanh against
 * tanh(Kx/2) with inputs spanning [-1, 1] (L = 8192). Exits non-zero
 * when the printed shape claim fails: the smallest K must be the least
 * accurate, and raising K from 8 to 20 must leave more than half of its
 * inaccuracy. The paper's rise past K = 14 and its magnitude are
 * reported, not gated (both are known failures here).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "sc/rng.h"
#include "sc/sng.h"
#include "sc/stanh.h"

using namespace scdcnn;

namespace {

double
relativeInaccuracy(unsigned k, size_t len, int trials)
{
    double num = 0;
    double den = 0;
    for (int t = 0; t < trials; ++t) {
        sc::SplitMix64 vals(4400 + t * 19);
        const double x = vals.nextInRange(-1.0, 1.0);
        sc::Xoshiro256ss rng(1200 + t);
        sc::Bitstream in = sc::sngBipolar(x, len, rng);
        sc::Stanh fsm(k);
        const double got = fsm.transform(in).bipolar();
        const double want = sc::Stanh::reference(k, x);
        num += std::abs(got - want);
        den += std::abs(want);
    }
    return den > 0 ? num / den : 0.0;
}

} // namespace

int
main()
{
    bench::banner("Table 5",
                  "State number vs relative inaccuracy of Stanh "
                  "(inputs uniform over [-1,1], L = 8192).");
    // Below ~500 trials the K = 10..20 cells (1.3-1.6 %) sit within
    // their sampling noise of each other and the column order shuffles.
    const int trials = static_cast<int>(bench::envSize(
        "SCDCNN_TABLE5_TRIALS", 2000));
    const unsigned states[] = {8, 10, 12, 14, 16, 18, 20};
    const double paper[] = {10.06, 8.27, 7.43, 7.36, 7.51, 8.07, 8.55};

    TextTable t("Stanh relative inaccuracy % (paper in parentheses)");
    std::vector<std::string> hdr = {"State number"};
    std::vector<std::string> row = {"Relative inaccuracy (%)"};
    double err[7];
    for (int i = 0; i < 7; ++i) {
        err[i] = 100.0 * relativeInaccuracy(states[i], 8192, trials);
        hdr.push_back(TextTable::num(static_cast<long long>(states[i])));
        row.push_back(TextTable::num(err[i]) + " (" +
                      TextTable::num(paper[i]) + ")");
    }
    t.header(hdr);
    t.row(row);
    t.print(std::cout);

    std::printf("\nShape check: K = 8 is the least accurate, and raising "
                "K to 20 leaves more than half of its inaccuracy: it is "
                "not suppressed by raising K, the paper's motivation for "
                "joint (K, L, N) sizing.\n");
    // A failed claim goes to stderr, so a passing run prints the table
    // alone.
    bool ok = true;
    for (int i = 1; i < 7; ++i)
        if (err[i] >= err[0]) {
            std::fprintf(stderr,
                         "FAIL: K=%u inaccuracy %.2f%% is not below "
                         "K=8's %.2f%%\n",
                         states[i], err[i], err[0]);
            ok = false;
        }
    if (err[6] <= 0.5 * err[0]) {
        std::fprintf(stderr,
                     "FAIL: K=20 inaccuracy %.2f%% is at most half of "
                     "K=8's %.2f%%\n",
                     err[6], err[0]);
        ok = false;
    }
    if (!ok)
        std::fprintf(stderr, "Shape check FAILED.\n");

    // Two more readings of the paper's row do not hold here; both are
    // known failures (DESIGN.md, "Reconstruction notes"), reported but
    // not gated.
    std::printf("Candidate check (inaccuracy rises again past K = 14): "
                "%s, K=14/20 read %.2f%%/%.2f%%\n",
                err[6] > err[3] ? "holds" : "KNOWN FAILURE", err[3],
                err[6]);
    const double lo = *std::min_element(err, err + 7);
    const double hi = *std::max_element(err, err + 7);
    std::printf("Magnitude check (within the paper's 7.36-10.06%%): %s, "
                "measured %.2f-%.2f%%\n",
                lo >= 7.36 && hi <= 10.06 ? "holds" : "KNOWN FAILURE", lo,
                hi);
    return ok ? 0 : 1;
}
