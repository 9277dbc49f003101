/**
 * @file
 * Parallel counters: the binary-domain adders of Section 4.1.
 *
 * A parallel counter consumes n parallel stochastic bit lines and emits,
 * every cycle, the binary count of ones among them. The conventional
 * accumulative parallel counter (Parhami & Yeh) is exact; the approximate
 * parallel counter (APC) of Kim et al. (ISOCC'15, Figure 7 in the paper)
 * trades the least-significant bit for ~40% fewer gates: the paper notes
 * its output LSB carries weight 2^1, i.e. the exact parity chain is cut.
 * We model the cut as a truncated parity: the LSB is estimated from the
 * XOR of the first four input lines only (one full-adder column worth of
 * XORs) instead of all n. Each per-cycle count therefore deviates by at
 * most 1 with near-zero bias — the behaviour Table 3 quantifies.
 *
 * Counting runs on the network engine's carry-save fold
 * (sc/fused.h fusedProductCountsMulti): the lines are folded against a
 * one-filter weight block whose row is all ones, since x XNOR 1 = x, so
 * cost is O(n log n / 64) word ops per cycle batch rather than O(n) per
 * bit. The XNOR-multiply + count of a product matrix is
 * blocks::ApcInnerProduct::countsFused.
 */

#ifndef SCDCNN_SC_COUNTER_H
#define SCDCNN_SC_COUNTER_H

#include <cstdint>
#include <vector>

#include "sc/bitstream.h"

namespace scdcnn {
namespace sc {

/**
 * Exact parallel counter (conventional accumulative parallel counter).
 */
class ParallelCounter
{
  public:
    /** Per-cycle exact column counts over the input streams. */
    static std::vector<uint16_t>
    counts(const std::vector<const Bitstream *> &streams);

    /** Convenience overload for owned streams. */
    static std::vector<uint16_t>
    counts(const std::vector<Bitstream> &streams);

    /** Total ones across all streams (sum of all per-cycle counts). */
    static uint64_t totalOnes(const std::vector<Bitstream> &streams);
};

/**
 * Approximate parallel counter (APC).
 */
class ApproxParallelCounter
{
  public:
    /**
     * Per-cycle approximate counts: the exact count with its LSB
     * replaced by the truncated parity of the first four lines.
     */
    static std::vector<uint16_t>
    counts(const std::vector<const Bitstream *> &streams);

    /** Number of leading lines whose parity forms the approximate LSB. */
    static constexpr size_t kLsbParityLines = 4;

    /** Convenience overload for owned streams. */
    static std::vector<uint16_t>
    counts(const std::vector<Bitstream> &streams);

    /** Binary output width for n input lines: ceil(log2(n+1)) - 1 lines
     *  of weight >= 2 plus the pass-through LSB. */
    static unsigned outputBits(size_t n_inputs);
};

} // namespace sc
} // namespace scdcnn

#endif // SCDCNN_SC_COUNTER_H
