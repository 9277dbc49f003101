/**
 * @file
 * Batched steppers for the activation FSMs.
 *
 * The scalar Stanh/Btanh units walk one cycle at a time through a
 * state-dependent branch — the last bit-serial stage of the post-counter
 * pipeline. The batch forms replay them at word speed over many streams:
 *
 *  - StanhBatchTable maps (state, input byte) -> (next state, output
 *    byte), consuming 8 input cycles per lookup;
 *  - BtanhBatchTable needs no table: its transition is one saturating
 *    add, clamp(state + delta, 0, K - 1), which is cheaper to compute
 *    than to look up. It keeps the batch interface (resumable states,
 *    interleaved streams, pixel tiles) of its Stanh counterpart.
 *
 * The scalar units (sc/stanh.h, sc/btanh.h) are the oracles: both
 * batch forms are bit-exact with a freshly constructed scalar unit's
 * transform() (randomized equivalence tests in tests/test_fsm_batch.cc).
 * Both are built once per (K, threshold) / (K, n_inputs) — the network
 * caches them per layer through FsmTableCache so per-pixel construction
 * cost disappears.
 */

#ifndef SCDCNN_SC_FSM_BATCH_H
#define SCDCNN_SC_FSM_BATCH_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sc/bitstream.h"

namespace scdcnn {
namespace sc {

namespace simd {
struct PlaneTile;
} // namespace simd

/** Streams interleaved per tile in the batch transforms — the 16-bit
 *  lane count of the 256-bit tile Btanh (simd::tileBtanh): big enough
 *  to cover the serial table-walk latency with independent chains,
 *  small enough that the tile's local state and word buffers stay in
 *  registers / L1. The vector step costs about as much for one pixel as
 *  for a full chunk, so the engine gathers pixels into tiles of at
 *  least this many. */
constexpr size_t kFsmBatchTile = 16;

/**
 * Batched K-state FSM tanh: (state, input byte) transition table.
 *
 * transform() starts from the midpoint state, matching a freshly
 * constructed Stanh — the per-pixel usage of the network engine.
 */
class StanhBatchTable
{
  public:
    /** @param k          number of FSM states (>= 2)
     *  @param threshold  first state index that outputs 1; -1 = k/2 */
    explicit StanhBatchTable(unsigned k, int threshold = -1);

    /** State count K. */
    unsigned k() const { return k_; }

    /** Output threshold state. */
    unsigned threshold() const { return threshold_; }

    /** Transform a whole stream (midpoint start), writing into @p out
     *  (reshaped in place). Bit-exact with a fresh Stanh::transform. */
    void transform(BitstreamView in, Bitstream &out) const;

    /** Low-level variant: read wordCount(length) words at @p in, write
     *  the same count at @p out (tail bits of the last word masked).
     *  @p in tail bits past @p length must be zero (the Bitstream /
     *  StreamArena invariant). */
    void transformWords(const uint64_t *in, size_t length,
                        uint64_t *out) const;

    /** Resumable variant for segment streaming: starts from *state and
     *  leaves the post-segment state there, so successive calls over a
     *  word-aligned partition of a stream (only the final segment may
     *  end off a word boundary) are bit-exact with one whole-stream
     *  transform. Initialize *state with initialState(). The engine
     *  steps streams through transformWordsBatch; this single-stream
     *  form is its reference twin, the per-stream, per-segment oracle
     *  of the batch form in tests/test_fsm_batch.cc. */
    void transformWords(const uint64_t *in, size_t length, uint64_t *out,
                        uint16_t *state) const;

    /** Interleaved multi-stream variant for the batch engine: advances
     *  @p n_streams independent transforms in lockstep (stream s reads
     *  ins[s], writes outs[s], carries states[s]), tiling streams so
     *  their serial table-walk chains overlap in the pipeline instead
     *  of running back to back. Bit-exact per stream with
     *  transformWords(ins[s], length, outs[s], states[s]). */
    void transformWordsBatch(const uint64_t *const *ins, size_t length,
                             uint64_t *const *outs,
                             uint16_t *const *states,
                             size_t n_streams) const;

    /** The midpoint start state of a fresh transform. */
    uint16_t initialState() const
    {
        return static_cast<uint16_t>(initial_state_);
    }

  private:
    /** Packed transition: next state + the 8 output bits. */
    struct Entry
    {
        uint16_t next;
        uint8_t out;
    };

    unsigned k_;
    unsigned threshold_;
    unsigned initial_state_;
    std::vector<Entry> table_; //!< indexed by (state << 8) | input byte
};

/**
 * Batched saturated up/down counter tanh for binary (APC) inputs: each
 * cycle the counter takes the clamped step clamp(state + delta, 0,
 * K - 1) and emits 1 while it sits in its upper half.
 *
 * transform*() start from the midpoint state, matching a freshly
 * constructed Btanh.
 */
class BtanhBatchTable
{
  public:
    /** @param k        number of counter states (even, >= 2)
     *  @param n_inputs the APC input count n (count v steps 2v - n) */
    BtanhBatchTable(unsigned k, unsigned n_inputs);

    /** State count K. */
    unsigned k() const { return k_; }

    /** The APC input count the count->delta mapping uses. */
    unsigned nInputs() const { return n_inputs_; }

    /** Transform a count sequence (midpoint start), writing into
     *  @p out. Bit-exact with a fresh Btanh::transform. */
    void transform(const std::vector<uint16_t> &counts,
                   Bitstream &out) const;

    /** Transform pre-signed steps, cf. Btanh::transformSigned. */
    void transformSigned(const std::vector<int> &steps,
                         Bitstream &out) const;

    /** Low-level variants writing wordCount(length) words at @p out
     *  (tail bits masked). */
    void transformWords(const uint16_t *counts, size_t length,
                        uint64_t *out) const;
    void transformSignedWords(const int *steps, size_t length,
                              uint64_t *out) const;

    /** Resumable variants for segment streaming (see the Stanh
     *  counterpart): *state carries the counter across calls. Both are
     *  reference twins: the engine runs transformTile over count
     *  planes and transformSignedWordsBatch over signed means, and
     *  these are their per-stream, per-segment oracles in
     *  tests/test_fsm_batch.cc (and the counts form the block-level
     *  API's Btanh). */
    void transformWords(const uint16_t *counts, size_t length,
                        uint64_t *out, uint16_t *state) const;
    void transformSignedWords(const int *steps, size_t length,
                              uint64_t *out, uint16_t *state) const;

    /** Interleaved multi-stream variant for the average-pooled APC
     *  stages (see the Stanh counterpart): bit-exact per stream with
     *  transformSignedWords(steps[s], length, outs[s], states[s]). */
    void transformSignedWordsBatch(const int *const *steps, size_t length,
                                   uint64_t *const *outs,
                                   uint16_t *const *states,
                                   size_t n_streams) const;

    /**
     * Pixel-tile variant for the max-pooled and unpooled APC stages:
     * the counts of pixel px come straight from the plane words of the
     * winners of each 16-cycle group, with one pixel per vector lane
     * (simd::tileBtanh). A max-pooled stage's winners are the ones
     * blocks::binaryMaxPoolPlanesBatch picked; an fc unit's tile has
     * one input and every winner 0. states[px] carries the counter;
     * output word q lands at outs[q * tile.pixel_stride + px], tail
     * bits masked. Both arrays hold tile.pixel_stride entries per word.
     * Bit-exact per pixel with transformWords over the forwarded counts.
     *
     * An average-pooled APC stage feeds transformSignedWordsBatch
     * instead: its signed mean trunc(sum(2v - n) / 4) is not a step of
     * the form 2c - n.
     */
    void transformTile(const simd::PlaneTile &tile, const uint8_t *winners,
                       size_t n_pixels, size_t length, uint16_t *states,
                       uint64_t *outs) const;

    /** The midpoint start state of a fresh transform. */
    uint16_t initialState() const
    {
        return static_cast<uint16_t>(k_ / 2);
    }

  private:
    /** One saturating step from @p state on @p delta. */
    unsigned stepState(unsigned state, int delta, bool &out_bit) const;

    unsigned k_;
    unsigned n_inputs_;
};

/**
 * Owning cache of built FSM tables keyed by their construction
 * parameters, so layers sharing a (K, threshold) / (K, n_inputs) pair
 * share one table. Not thread-safe: populate at network construction,
 * read-only afterwards.
 */
class FsmTableCache
{
  public:
    /** The Stanh table for (k, threshold), building it on first use. */
    const StanhBatchTable &stanh(unsigned k, int threshold = -1);

    /** The Btanh table for (k, n_inputs), building it on first use. */
    const BtanhBatchTable &btanh(unsigned k, unsigned n_inputs);

  private:
    std::map<std::pair<unsigned, int>,
             std::unique_ptr<StanhBatchTable>>
        stanh_;
    std::map<std::pair<unsigned, unsigned>,
             std::unique_ptr<BtanhBatchTable>>
        btanh_;
};

} // namespace sc
} // namespace scdcnn

#endif // SCDCNN_SC_FSM_BATCH_H
