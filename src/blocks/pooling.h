/**
 * @file
 * Pooling function blocks (Section 4.2).
 *
 * Average pooling reuses the down-scaling MUX (Figure 5(b)). Max pooling
 * in the stochastic domain would normally require counting whole streams
 * first; the paper's hardware-oriented design (Figure 8) instead slices
 * the streams into c-bit segments, counts ones per segment, and forwards
 * the segment of whichever input won the *previous* segment — zero added
 * latency, approximately the maximum. The binary-domain variant replaces
 * the bit counters with accumulators so APC count sequences can be
 * max-pooled the same way (APC-Max-Btanh).
 */

#ifndef SCDCNN_BLOCKS_POOLING_H
#define SCDCNN_BLOCKS_POOLING_H

#include <cstdint>
#include <vector>

#include "sc/bitstream.h"
#include "sc/rng.h"
#include "sc/simd.h"

namespace scdcnn {
namespace blocks {

/** MUX-based average pooling: output encodes mean of the inputs. */
sc::Bitstream averagePooling(const std::vector<sc::Bitstream> &inputs,
                             sc::Xoshiro256ss &sel);

/** Bit-serial oracle for the Figure 8 stream selector
 *  (HardwareMaxPooling::compute, maxPoolStreamsRange): per-bit
 *  counters, get()-driven forwarding. */
sc::Bitstream
maxPoolStreamsReference(const std::vector<sc::BitstreamView> &inputs,
                        size_t segment_len, size_t first_choice,
                        bool accumulate);

/**
 * Carried state of a segment-streamed Figure 8 selector, as a view of
 * caller-owned storage: the per-input counters (bit counters for
 * streams, accumulators for binary counts) and the currently selected
 * input. The engine keeps every pixel's state in two flat arrays per
 * stage; MaxPoolCarryState owns one selector's. A stream processed
 * range by range through the *Range functions below is bit-exact with
 * the corresponding whole-stream kernel — selection decisions happen
 * at the same absolute pooling-segment boundaries with the same
 * accumulated evidence, partial pooling segments straddling a range
 * boundary included.
 */
struct MaxPoolCarry
{
    uint64_t *counters = nullptr; //!< one counter per input
    uint32_t *selected = nullptr; //!< the input the next segment forwards
};

/** One selector's carried state, owned (the block API and tests). */
struct MaxPoolCarryState
{
    std::vector<uint64_t> counters;
    uint32_t selected = 0;

    /** Zero the counters and select @p first_choice for the first
     *  pooling segment (the whole-stream kernels' first_choice). */
    void reset(size_t n_inputs, size_t first_choice = 0)
    {
        counters.assign(n_inputs, 0);
        selected = static_cast<uint32_t>(first_choice);
    }

    MaxPoolCarry view() { return {counters.data(), &selected}; }
};

/**
 * Word-parallel Figure 8 selector over absolute cycles [@p abs_begin,
 * @p abs_begin + @p n_cycles) of the pooled stream: segment counts via
 * masked word popcounts, forwarding via word copies with boundary
 * masks. @p inputs are segment-local packed words (bit i of inputs[k]
 * is input k's bit at absolute cycle abs_begin + i; abs_begin must be
 * word-aligned), @p out likewise. Output words are fully rewritten.
 * Run once over a whole stream from a state reset to first_choice, it
 * is bit-exact with maxPoolStreamsReference.
 */
void maxPoolStreamsRange(const uint64_t *const *inputs, size_t n_inputs,
                         size_t abs_begin, size_t n_cycles,
                         size_t segment_len, bool accumulate,
                         MaxPoolCarry state, uint64_t *out);

/**
 * Hardware-oriented max pooling (Figure 8).
 */
class HardwareMaxPooling
{
  public:
    /**
     * @param inputs       candidate streams (equal lengths)
     * @param segment_len  c, the slice length (paper uses 16)
     * @param first_choice which input feeds the first segment (the
     *        paper picks it randomly to avoid latency; defaults to 0)
     * @param accumulate   when true the per-input counters are never
     *        reset, so the selection integrates evidence over the whole
     *        stream ("accumulative" reading of the Figure 8 counters).
     *        Reset-per-segment matches Table 4; the accumulative mode
     *        is what makes the selection reliable when the candidate
     *        streams are separated by O(1/N), as inside a trained
     *        network (see DESIGN.md reconstruction notes).
     *
     * Runs maxPoolStreamsRange once over the whole stream.
     */
    static sc::Bitstream compute(const std::vector<sc::Bitstream> &inputs,
                                 size_t segment_len,
                                 size_t first_choice = 0,
                                 bool accumulate = false);

    /** Software reference: the stream with the most total ones. */
    static size_t argmaxStream(const std::vector<sc::Bitstream> &inputs);
};

/**
 * Binary-domain average pooling for APC count sequences: per-cycle
 * integer mean. The truncating division drops the fractional part —
 * the information loss Section 6.1 attributes to APC-Avg-Btanh.
 */
std::vector<uint16_t>
binaryAveragePooling(const std::vector<std::vector<uint16_t>> &counts);

/**
 * Signed binary average pooling: averages the bipolar per-cycle values
 * 2v - n and truncates toward zero, as a signed hardware divider does.
 * This is what feeds Btanh in the APC-Avg-Btanh block: truncating the
 * *unsigned* mean instead would inject a constant -(pool-1)/2 drift
 * into the counter, which contradicts the accuracy Figure 14(c)
 * reports; the signed divider's +/-((pool-1)/2)/pool bias toward zero
 * is the residual information loss the paper describes.
 *
 * @param counts   pool_size count sequences, entries in [0, n]
 * @param n_inputs n, so each count v maps to the signed value 2v - n
 * @return one signed step per cycle, trunc((sum_j (2v_j - n)) / pool)
 */
std::vector<int>
binaryAveragePoolingSigned(const std::vector<std::vector<uint16_t>> &counts,
                           size_t n_inputs);

/** Pointer variant over segment-local count buffers (the per-cycle
 *  mean is stateless, so ranges need no carried state): counts[j][i]
 *  for pool input j, @p n_cycles entries each, steps into @p out. */
void binaryAveragePoolingSignedRange(const uint16_t *const *counts,
                                     size_t pool_size, size_t n_inputs,
                                     size_t n_cycles, int *out);

/**
 * binaryAveragePoolingSignedRange over a tile's count planes, the
 * average-pooled APC stages' pooling: the per-cycle counts of each of
 * tile pixel @p px's windows are expanded from their plane rows
 * (sc::simd::tileCounts) into @p counts, scratch for tile.n_inputs *
 * tile.n_words * 64 of them, then averaged as signed steps over the
 * range's first @p n_cycles cycles into @p out. Bit-exact with
 * binaryAveragePoolingSigned over the same counts.
 */
void binaryAveragePoolingSignedPlanes(const sc::simd::PlaneTile &tile,
                                      size_t px, size_t n_inputs,
                                      size_t n_cycles, uint16_t *counts,
                                      int *out);

/**
 * Binary-domain Figure 8 selector over segment-local count buffers:
 * counts[k][i] is input k's count at absolute cycle abs_begin + i.
 * Segment accumulation sums the counts, forwarding copies them. See
 * maxPoolStreamsRange for the carry contract; run once over a whole
 * sequence it is bit-exact with binaryMaxPoolReference. The engine
 * pools count planes through binaryMaxPoolPlanesBatch; this is its
 * reference twin, the oracle of the plane form in tests/test_pooling.cc.
 */
void binaryMaxPoolRange(const uint16_t *const *counts, size_t n_inputs,
                        size_t abs_begin, size_t n_cycles,
                        size_t segment_len, bool accumulate,
                        MaxPoolCarry state, uint16_t *out);

/**
 * Carried selector state of a pixel tile, pixel-minor: input k's
 * counter of pixel px at counters[k * pixel_stride + px] for k < 4 (the
 * rows past the tile's inputs stay zero), the selection at
 * selected[px]. Both hold pixel_stride entries per row.
 */
struct MaxPoolTileCarry
{
    uint64_t *counters = nullptr;
    uint32_t *selected = nullptr;
};

/**
 * Batch-axis binaryMaxPoolRange over a tile's count planes instead of
 * materialized per-cycle counts: one call pools the same window set of
 * every pixel of a tile (its images, lanes and positions), each with
 * its own carried state, and decides what every 16-cycle group forwards
 * rather than forwarding it. @p tile holds the windows' planes in the
 * sc::simd::PlaneTile form over the word-aligned range [@p abs_begin,
 * @p abs_begin + @p n_cycles) (tile.n_words = ceil(n_cycles / 64)).
 * Writes winners[(q * pixel_stride + px) * 4 + g], the input group g of
 * word q of pixel px forwards, and returns the tile the winners index,
 * which sc::BtanhBatchTable::transformTile reads. Forwarding those
 * groups' counts is bit-exact with binaryMaxPoolRange over the
 * transposed counts, and so is the carried state.
 *
 * The Figure 8 selector only ever emits the input selected by the
 * *previous* segment, so the losing inputs' per-cycle counts are never
 * needed. On the 16-cycle grid (segment_len a multiple of 16, which
 * covers the paper's c = 16, and plane_cap <= 12) every decision falls
 * on a group boundary and a call runs two passes, one pixel per vector
 * lane: the group sums of every (group, window) across pixels
 * (sc::simd::tileGroupSums), then the walk (sc::simd::tileSelectorWalk)
 * under a decision schedule computed once per call; @p tile itself is
 * returned. Segment lengths off the grid take a scalar general path
 * that writes the forwarded planes to @p forwarded and returns them as
 * a one-input tile, every winner 0.
 */
sc::simd::PlaneTile binaryMaxPoolPlanesBatch(
    const sc::simd::PlaneTile &tile, size_t n_pixels, size_t abs_begin,
    size_t n_cycles, size_t segment_len, bool accumulate,
    MaxPoolTileCarry carry, uint8_t *winners,
    std::vector<uint64_t> &forwarded);

/**
 * Range-streamed MUX average pooling: one select draw per cycle from
 * @p rng — exactly the draws sc::muxAdd would consume, so successive
 * ranges with a carried generator reproduce the whole-stream result
 * bit-exactly. Inputs/outputs are segment-local packed words; output
 * words are fully rewritten.
 */
void averagePoolingRange(const uint64_t *const *inputs, size_t n_inputs,
                         size_t n_cycles, sc::Xoshiro256ss &rng,
                         uint64_t *out);

/** Element-serial oracle for the binary-domain selector
 *  (BinaryMaxPooling::compute, binaryMaxPoolRange). */
std::vector<uint16_t>
binaryMaxPoolReference(const std::vector<std::vector<uint16_t>> &counts,
                       size_t segment_len, size_t first_choice,
                       bool accumulate);

/**
 * Binary-domain max pooling: the Figure 8 selector with the bit
 * counters replaced by accumulators over the APC count sequences.
 */
class BinaryMaxPooling
{
  public:
    /** See HardwareMaxPooling::compute for @p accumulate. Runs
     *  binaryMaxPoolRange once over the whole sequence. */
    static std::vector<uint16_t>
    compute(const std::vector<std::vector<uint16_t>> &counts,
            size_t segment_len, size_t first_choice = 0,
            bool accumulate = false);
};

} // namespace blocks
} // namespace scdcnn

#endif // SCDCNN_BLOCKS_POOLING_H
