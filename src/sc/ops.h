/**
 * @file
 * Gate-level stochastic arithmetic (Section 3.2, Figures 4 and 5).
 *
 * Multiplication:
 *  - unipolar: AND gate, P(A&B) = P(A)P(B) for independent streams;
 *  - bipolar:  XNOR gate, c = a*b.
 *
 * Addition:
 *  - OR gate:  cheapest, lossy ("1 OR 1" yields a single 1);
 *  - MUX:      selects one input per cycle, output = (1/n) * sum;
 *  - (APC, the parallel counter, lives in counter.h).
 */

#ifndef SCDCNN_SC_OPS_H
#define SCDCNN_SC_OPS_H

#include <vector>

#include "sc/bitstream.h"
#include "sc/rng.h"

namespace scdcnn {
namespace sc {

/** Unipolar multiply: AND gate. */
Bitstream andMultiply(const Bitstream &a, const Bitstream &b);

/** Bipolar multiply: XNOR gate. */
Bitstream xnorMultiply(const Bitstream &a, const Bitstream &b);

/** OR-gate addition over any number of operands. */
Bitstream orAdd(const std::vector<Bitstream> &inputs);

/**
 * MUX-based scaled addition: each cycle one input is selected uniformly
 * at random; the output encodes (1/n) * sum of the operands.
 */
Bitstream muxAdd(const std::vector<Bitstream> &inputs, Xoshiro256ss &rng);

/**
 * MUX addition with precomputed select indices (one per cycle) so a
 * hardware select-line source can be modeled explicitly.
 */
Bitstream muxAddWithSelects(const std::vector<Bitstream> &inputs,
                            const std::vector<uint32_t> &selects);

/**
 * Stochastic cross-correlation (SCC) of two streams, in [-1, 1].
 *
 * 0 means independent-looking, +1 maximally overlapped, -1 maximally
 * anti-overlapped. Used to quantify how RNG sharing degrades accuracy.
 */
double scc(const Bitstream &a, const Bitstream &b);

} // namespace sc
} // namespace scdcnn

#endif // SCDCNN_SC_OPS_H
