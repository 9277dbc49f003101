/**
 * @file
 * Figure 9: Stanh(K, x) output vs tanh(Kx/2) across the input range,
 * for several state counts. Exits non-zero when the printed shape claim
 * fails: the FSM must track tanh(Kx/2) at every K, and at K = 4 it must
 * deviate more near |x| -> 1 than in the mid range.
 */

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

int
main()
{
    bench::banner("Figure 9",
                  "Stanh output vs tanh(Kx/2) over x in [-1,1] "
                  "(L = 8192); one column pair per K.");
    const size_t len = 8192;
    const unsigned ks[] = {4, 8, 16, 20};
    constexpr size_t n_ks = std::size(ks);
    // Mean |Stanh - tanh| per K over the whole grid, the edges
    // (|x| >= 0.75) and the mid range (|x| <= 0.25).
    double dev_all[n_ks] = {}, dev_edge[n_ks] = {}, dev_mid[n_ks] = {};
    int n_all = 0, n_edge = 0, n_mid = 0;

    TextTable t("Stanh(K,x) [measured] vs tanh(Kx/2) [reference]");
    std::vector<std::string> hdr = {"x"};
    for (unsigned k : ks) {
        hdr.push_back("K=" + TextTable::num(static_cast<long long>(k)) +
                      " SC");
        hdr.push_back("K=" + TextTable::num(static_cast<long long>(k)) +
                      " ref");
    }
    t.header(hdr);

    for (double x = -1.0; x <= 1.001; x += 0.125) {
        std::vector<std::string> row = {TextTable::num(x, 3)};
        const bool edge = std::abs(x) >= 0.75 - 1e-9;
        const bool mid = std::abs(x) <= 0.25 + 1e-9;
        for (size_t i = 0; i < n_ks; ++i) {
            const unsigned k = ks[i];
            sc::Xoshiro256ss rng(
                5000 + k + static_cast<uint64_t>((x + 1) * 1000));
            sc::Bitstream in = sc::sngBipolar(x, len, rng);
            sc::Stanh fsm(k);
            const double got = fsm.transform(in).bipolar();
            const double want = sc::Stanh::reference(k, x);
            row.push_back(TextTable::num(got, 3));
            row.push_back(TextTable::num(want, 3));
            const double dev = std::abs(got - want);
            dev_all[i] += dev;
            dev_edge[i] += edge ? dev : 0.0;
            dev_mid[i] += mid ? dev : 0.0;
        }
        ++n_all;
        n_edge += edge;
        n_mid += mid;
        t.row(row);
    }
    t.print(std::cout);
    std::printf("\nMean |Stanh - tanh| (all / |x| >= 0.75 / |x| <= "
                "0.25):");
    for (size_t i = 0; i < n_ks; ++i) {
        dev_all[i] /= n_all;
        dev_edge[i] /= n_edge;
        dev_mid[i] /= n_mid;
        std::printf("%s K=%u %.3f/%.3f/%.3f", i == 0 ? "" : ",", ks[i],
                    dev_all[i], dev_edge[i], dev_mid[i]);
    }
    std::printf("\n");

    std::printf("Shape check: the FSM tracks the scaled tanh closely "
                "(mean deviation at most 0.05 at every K) and, at K = 4, "
                "deviates more near |x| -> 1 than in the mid range, as "
                "Figure 9 shows.\n");
    // A failed claim goes to stderr, so a passing run prints the table
    // alone.
    bool ok = true;
    for (size_t i = 0; i < n_ks; ++i)
        if (dev_all[i] > 0.05) {
            std::fprintf(stderr,
                         "FAIL: K=%u mean deviation %.3f exceeds 0.05\n",
                         ks[i], dev_all[i]);
            ok = false;
        }
    if (dev_edge[0] <= dev_mid[0]) {
        std::fprintf(stderr,
                     "FAIL: K=4 edge deviation %.3f does not exceed mid "
                     "range deviation %.3f\n",
                     dev_edge[0], dev_mid[0]);
        ok = false;
    }
    if (!ok)
        std::fprintf(stderr, "Shape check FAILED.\n");

    // At K >= 8, tanh(K/2) already rounds to 1, so the FSM's saturation
    // at +/-1 costs nothing at the edges and the noise of the steep mid
    // range dominates: a known failure of the edge reading (DESIGN.md,
    // "Reconstruction notes"), reported but not gated.
    std::printf("Candidate check (edge deviation exceeds mid range at "
                "every K): ");
    for (size_t i = 1; i < n_ks; ++i)
        std::printf("%sK=%u %s, edge/mid read %.3f/%.3f",
                    i == 1 ? "" : "; ", ks[i],
                    dev_edge[i] > dev_mid[i] ? "holds" : "KNOWN FAILURE",
                    dev_edge[i], dev_mid[i]);
    std::printf("\n");
    return ok ? 0 : 1;
}
