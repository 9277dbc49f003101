/**
 * @file
 * Activation sizing: the empirical state-count equations of Section 4.4.
 *
 * The Stanh/Btanh units themselves live in src/sc; this header carries
 * the feature-extraction-block-level joint optimization results — how
 * many FSM/counter states to use for a given input size N and bit-stream
 * length L:
 *
 *   Eq. (1)  MUX-Avg-Stanh:  K ~= 2 log2 N + (log2 L * N)/(33.27 log2 N)
 *   Eq. (2)  MUX-Max-Stanh:  K ~= 2 (log2 N + log2 L)
 *                                 - 37/log2 N - 16.5/log5 L
 *   Eq. (3)  APC-Avg-Btanh:  K ~= N/2
 *   (direct) APC-Max-Btanh:  the original DAC'16 sizing, K ~= 2N
 *
 * All results round to the nearest even number of states.
 */

#ifndef SCDCNN_BLOCKS_ACTIVATION_H
#define SCDCNN_BLOCKS_ACTIVATION_H

#include <cstddef>

namespace scdcnn {
namespace blocks {

/** Eq. (1): Stanh states for MUX-Avg-Stanh. */
unsigned stanhStateCountAvg(size_t bitstream_len, size_t n_inputs);

/** Eq. (2): Stanh states for MUX-Max-Stanh (Figure 11 FSM). */
unsigned stanhStateCountMax(size_t bitstream_len, size_t n_inputs);

/** Output threshold for the Figure 11 FSM: state K/5. */
unsigned stanhMaxThreshold(unsigned k);

} // namespace blocks
} // namespace scdcnn

#endif // SCDCNN_BLOCKS_ACTIVATION_H
