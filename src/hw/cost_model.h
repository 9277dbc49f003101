/**
 * @file
 * Structural area/power/delay builders for every SC-DCNN block.
 *
 * Each builder composes cell counts for a block design and tracks the
 * combinational depth separately, so Figure 15's four panels (area,
 * path delay, power, energy) all derive from one model. Costs add, and
 * scale by instance count.
 */

#ifndef SCDCNN_HW_COST_MODEL_H
#define SCDCNN_HW_COST_MODEL_H

#include <cstddef>

#include "blocks/feature_block.h"
#include "hw/gates.h"

namespace scdcnn {
namespace hw {

/**
 * Aggregated hardware cost of a block (or a whole chip region).
 */
struct HwCost
{
    double area_um2 = 0;     //!< total placed cell area
    double dynamic_w = 0;    //!< switching power at kClockHz
    double leakage_w = 0;    //!< static power
    double delay_ns = 0;     //!< combinational critical path

    /** Total power. */
    double totalPowerW() const { return dynamic_w + leakage_w; }

    /** Component-wise sum; the critical path takes the max. */
    HwCost &operator+=(const HwCost &o);
    HwCost operator+(const HwCost &o) const;

    /** Replicate the block @p n times (delay unchanged). */
    HwCost times(double n) const;

    /** Chain after another stage: areas/powers add, delays add. */
    HwCost chainedWith(const HwCost &o) const;

    /** Energy to stream L bits at the global clock, in joules. */
    double energyForLength(size_t bitstream_len) const;
};

/** Cost of @p count instances of one cell type (depth = 1 cell). */
HwCost cells(Cell cell, double count, double depth_levels = 1.0);

/** n-lane XNOR multiplier array (depth: one XNOR). */
HwCost xnorArray(size_t n);

/** n-input OR adder as a tree of OR2 cells. */
HwCost orTree(size_t n);

/** n-to-1 MUX tree including its select-line distribution share. */
HwCost muxTree(size_t n);

/** Conventional (exact) accumulative parallel counter over n lines. */
HwCost parallelCounterExact(size_t n);

/** Approximate parallel counter: ~60% of the exact gate count
 *  (Kim et al. report ~40% reduction), same depth model. */
HwCost parallelCounterApprox(size_t n);

/** K-state Stanh FSM (state register + next-state + output decode). */
HwCost stanhFsm(unsigned k);

/** Btanh saturated counter for K states and n-input binary counts. */
HwCost btanhCounter(unsigned k, size_t n);

/** MUX-based average pooling over pool_size streams. */
HwCost avgPoolMux(size_t pool_size);

/** Hardware-oriented max pooling (Figure 8): counters + comparator +
 *  MUX for pool_size streams and c-bit segments. */
HwCost hardwareMaxPool(size_t pool_size, size_t segment_len);

/** Binary-domain average pooling: adder tree + shift divider. */
HwCost binaryAvgPool(size_t pool_size, size_t n);

/** Binary-domain max pooling: accumulators + comparator + word MUX. */
HwCost binaryMaxPool(size_t pool_size, size_t n, size_t segment_len);

/** One SNG: comparator against the stored threshold + LFSR share
 *  (the Kim et al. ASP-DAC'16 generator is shared across a filter
 *  block's worth of SNGs). */
HwCost sng(unsigned value_bits, double lfsr_share = 1.0 / 64.0);

/** Shared LFSR of the given width. */
HwCost lfsr(unsigned width);

/**
 * Full feature extraction block cost (Figure 10): pool_size inner
 * product blocks + pooling + activation, per the config's kind.
 */
HwCost febCost(const blocks::FebConfig &cfg);

} // namespace hw
} // namespace scdcnn

#endif // SCDCNN_HW_COST_MODEL_H
