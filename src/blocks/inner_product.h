/**
 * @file
 * The inner-product/convolution block designs of Section 4.1 that the
 * paper evaluates (its two-line adder, Figure 5(d), is described there
 * but set aside and not reproduced here).
 *
 * Every block multiplies n bipolar inputs by n bipolar weights with XNOR
 * gates and differs in how the n product streams are summed:
 *
 *  - OrInnerProduct:      OR gate with pre-scaling; cheap, lossy;
 *  - MuxInnerProduct:     n-to-1 MUX; output encodes (1/n) * sum;
 *  - ApcInnerProduct:     (approximate) parallel counter; binary counts,
 *                         non-scaled, high accuracy.
 */

#ifndef SCDCNN_BLOCKS_INNER_PRODUCT_H
#define SCDCNN_BLOCKS_INNER_PRODUCT_H

#include <cstdint>
#include <vector>

#include "sc/bitstream.h"
#include "sc/rng.h"
#include "sc/sng.h"

namespace scdcnn {
namespace blocks {

/** XNOR the pairwise product streams of inputs and weights. */
std::vector<sc::Bitstream>
productStreams(const std::vector<sc::Bitstream> &xs,
               const std::vector<sc::Bitstream> &ws);

/** Generate bipolar streams for a value vector from an SNG bank. */
std::vector<sc::Bitstream>
encodeBipolar(const std::vector<double> &values, size_t length,
              sc::SngBank &bank);

/** Float reference: sum_i x_i * w_i. */
double innerProductReference(const std::vector<double> &xs,
                             const std::vector<double> &ws);

/**
 * MUX-based inner product block. The output stream encodes
 * (1/n) * sum_i x_i w_i in bipolar format.
 */
class MuxInnerProduct
{
  public:
    /** Sum pre-multiplied product streams through the n-to-1 MUX. */
    static sc::Bitstream sumProducts(
        const std::vector<sc::Bitstream> &products, sc::Xoshiro256ss &sel);

    /**
     * Word-parallel fused path: XNOR-multiply + MUX without
     * materializing product streams, as one fusedMuxProductMulti call
     * on a one-filter weight block. Consumes one select draw per
     * cycle from @p sel — bit-exact with sumProducts(productStreams())
     * for the same generator state.
     */
    static sc::Bitstream
    sumProductsFused(const std::vector<const sc::Bitstream *> &xs,
                     const std::vector<const sc::Bitstream *> &ws,
                     sc::Xoshiro256ss &sel);

    /** Full block: encode values, multiply, sum. */
    static sc::Bitstream compute(const std::vector<double> &xs,
                                 const std::vector<double> &ws,
                                 size_t length, sc::SngBank &bank);

    /** Estimate of sum x.w decoded from the block output. */
    static double estimate(const std::vector<double> &xs,
                           const std::vector<double> &ws, size_t length,
                           sc::SngBank &bank);
};

/**
 * APC-based inner product block. Emits binary column counts; the
 * represented (non-scaled) value at cycle t is 2*v_t - n.
 */
class ApcInnerProduct
{
  public:
    /**
     * Per-cycle counts of the product matrix.
     * @param approximate true = APC, false = conventional exact counter
     */
    static std::vector<uint16_t> counts(
        const std::vector<sc::Bitstream> &products, bool approximate);

    /** Full block from values. */
    static std::vector<uint16_t> counts(const std::vector<double> &xs,
                                        const std::vector<double> &ws,
                                        size_t length, sc::SngBank &bank,
                                        bool approximate);

    /**
     * Word-parallel fused path: per-cycle counts of the XNOR products
     * without materializing product streams, as one
     * fusedProductCountsMulti call on a one-filter weight block
     * (bit-exact with counts(productStreams())).
     */
    static std::vector<uint16_t>
    countsFused(const std::vector<const sc::Bitstream *> &xs,
                const std::vector<const sc::Bitstream *> &ws,
                bool approximate);

    /** Decode sum x.w from counts: (2 * sum_t v_t - n*L) / L. */
    static double decode(const std::vector<uint16_t> &counts, size_t n);
};

/**
 * OR-gate inner product block with pre-scaling (Table 1).
 *
 * The products are encoded at 1/scale of their value so that ones stay
 * sparse, OR-summed, and the output is decoded back by multiplying with
 * the scale factor.
 */
class OrInnerProduct
{
  public:
    /** Unipolar estimate of sum x.w (inputs and weights in [0, 1]). */
    static double estimateUnipolar(const std::vector<double> &xs,
                                   const std::vector<double> &ws,
                                   double scale, size_t length,
                                   sc::SngBank &bank);

    /** Bipolar estimate of sum x.w (inputs and weights in [-1, 1]). */
    static double estimateBipolar(const std::vector<double> &xs,
                                  const std::vector<double> &ws,
                                  double scale, size_t length,
                                  sc::SngBank &bank);

    /** Candidate pre-scaling factors swept by the Table 1 harness. */
    static std::vector<double> scaleCandidates(size_t n);
};

} // namespace blocks
} // namespace scdcnn

#endif // SCDCNN_BLOCKS_INNER_PRODUCT_H
