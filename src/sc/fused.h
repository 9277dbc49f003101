/**
 * @file
 * Fused word-parallel network kernels (and their bit-serial oracles).
 *
 * The inference hot path evaluates millions of XNOR-multiply + adder
 * operations per image. Materializing one intermediate Bitstream per
 * product costs an allocation and a full stream traversal per operand
 * pair; walking streams one cycle at a time through Bitstream::get()
 * costs a bounds check and a word extraction per bit. The kernels here
 * avoid both:
 *
 *  - fusedProductCountsMulti and its batch forms: one filter block's
 *    XNOR + carry-save fold for every filter lane at once, over one
 *    operand window or a weight-stationary micro-batch — the inner
 *    product of every APC stage, the binary output layer included
 *    (its class scores are the segment sums of these counts). The
 *    engine runs the plane-emitting batch form
 *    (fusedProductPlanesMultiBatch); the counts forms serve the
 *    block-level API;
 *  - fusedMuxProductMulti: the MUX-based inner product of a filter
 *    block, driven by one shared per-cycle select sequence.
 *
 * The block-level API (sc/counter.h, blocks/inner_product.h) runs on
 * the same two kernels as a one-filter caller: it copies its weight
 * streams (or, for plain line counts, an all-ones row, since
 * x XNOR 1 = x) into a one-lane weight block and makes one call over
 * the whole stream. Operands are BitstreamViews (pointer + length), so
 * a layer's streams can be packed into one contiguous StreamArena and
 * streamed through. The carry-save fold dispatches to the AVX-512 or
 * AVX2 body of sc/simd.h at runtime, with the portable scalar body kept
 * as the always-built default.
 *
 * Every fused kernel has a bit-serial reference twin (reference*) that
 * computes the same result one cycle at a time through the per-bit
 * view API. The twins are the correctness oracle: randomized
 * equivalence tests assert bit-exact agreement, and bench_throughput
 * measures the speedup of an engine built on one against the other.
 * See DESIGN.md for the packed-word layout and the kernel contract.
 */

#ifndef SCDCNN_SC_FUSED_H
#define SCDCNN_SC_FUSED_H

#include <cstdint>
#include <vector>

#include "sc/bitstream.h"
#include "sc/rng.h"

namespace scdcnn {
namespace sc {

/** Bit-planes of the carry-save counters (shared by the scalar and
 *  SIMD folds): a column count of at most 2^13 - 1 = 8191. */
constexpr int kMaxCarrySavePlanes = 13;

/** Most product lines (taps, the bias included) one carry-save fold
 *  can count: the network rejects APC stages with more at
 *  construction, since an all-ones cycle would overflow the planes. */
constexpr size_t kMaxCarrySaveLines = (size_t{1} << kMaxCarrySavePlanes) - 1;

/** Most MUX inputs (taps, the bias included): select indices are
 *  stored as uint16_t to halve the per-pixel select-buffer traffic, so
 *  the network rejects wider MUX stages at construction. */
constexpr size_t kMaxMuxInputs = 65536;

/**
 * Draw one uniform select index per cycle into @p selects, resized to
 * @p length. Consumes exactly @p length nextBelow(n_inputs) draws — the
 * same sequence muxAdd() would consume — so a MUX built from these
 * selects is bit-exact with the rng-driven one. Fan-in is limited to
 * kMaxMuxInputs.
 */
void fillMuxSelects(size_t n_inputs, size_t length, Xoshiro256ss &rng,
                    std::vector<uint16_t> &selects);

// ------- Filter-blocked, segment-ranged kernels -------------------
//
// The *Multi kernels take one shared window of input views plus a
// filter-interleaved weight block (sc/bitstream.h) and produce results
// for every filter lane in a single pass: each input word is loaded
// once and XNOR'd against all lanes while hot. All ranged kernels
// cover the cycles [begin_word * 64, min(end_word * 64, length)) of
// the operand streams and write segment-local outputs (index 0 maps
// to cycle begin_word * 64), which is what the segment-streaming
// engine feeds layer by layer.

/**
 * Filter-blocked XNOR-multiply + parallel-counter column counts over a
 * word range: counts for lane f, cycle begin_word * 64 + i land at
 * out[f * out_stride + i]. Exactly block.lanes lanes are written;
 * out_stride must cover the ranged cycle count. One window of the
 * shared carry-save fold (sc/simd.h ProductFold): the SIMD body at
 * runtime for full words, the scalar body for the rest.
 */
void fusedProductCountsMulti(const std::vector<BitstreamView> &xs,
                             const WeightBlockView &block,
                             bool approximate, size_t begin_word,
                             size_t end_word, uint16_t *out,
                             size_t out_stride);

/**
 * Filter-blocked MUX inner product over a word range, all lanes driven
 * by one shared per-cycle select sequence (selects[i] belongs to cycle
 * begin_word * 64 + i). Product words for lane f land at
 * out[f * out_word_stride + w - begin_word]; tail bits past the
 * stream length are kept zero.
 */
void fusedMuxProductMulti(const std::vector<BitstreamView> &xs,
                          const WeightBlockView &block,
                          const std::vector<uint16_t> &selects,
                          size_t begin_word, size_t end_word,
                          uint64_t *out, size_t out_word_stride);

/** Bit-serial oracle for fusedProductCountsMulti (per-bit view /
 *  block get()). */
void referenceProductCountsMulti(const std::vector<BitstreamView> &xs,
                                 const WeightBlockView &block,
                                 bool approximate, size_t begin_word,
                                 size_t end_word, uint16_t *out,
                                 size_t out_stride);

/** Bit-serial oracle for fusedMuxProductMulti. */
void referenceMuxProductMulti(const std::vector<BitstreamView> &xs,
                              const WeightBlockView &block,
                              const std::vector<uint16_t> &selects,
                              size_t begin_word, size_t end_word,
                              uint64_t *out, size_t out_word_stride);

// ------- Binary (L = 1) XNOR-popcount kernels ---------------------
//
// The binary backend (core/binary_net.h) is the SC machinery collapsed
// to one-bit streams: a sign activation or weight is a single packed
// bit, an n-tap inner product is the XNOR match count m, and the
// pre-activation integer is s = 2m - n. The kernels below are that
// backend's hot paths and follow the same discipline as the SC kernels
// above: a word-parallel fused implementation (dispatching to the AVX2
// path of sc/simd.h) with a bit-serial reference twin asserted
// bit-exact by the tests.

/**
 * Filter-blocked XNOR-popcount inner product: matches[f] accumulates
 * the number of positions in [0, block.length) where @p x and lane f's
 * packed sign-weight vector carry the same bit. x.length must equal
 * block.length and block.taps must be 1 (the binary weight arena packs
 * a filter's whole fan-in as one stream). Exactly block.lanes entries
 * of @p matches are written (overwritten, not accumulated).
 */
void fusedXnorPopcountMulti(const BitstreamView &x,
                            const WeightBlockView &block,
                            uint32_t *matches);

/** Bit-serial oracle for fusedXnorPopcountMulti (per-bit get()). */
void referenceXnorPopcountMulti(const BitstreamView &x,
                                const WeightBlockView &block,
                                uint32_t *matches);

/**
 * Popcount-sign activation: bit i of @p out is 1 when s[i] >= 0 (ties
 * activate to +1, the nn::signQuantizeBit convention). Packs @p n bits
 * into ceil(n / 64) words; tail bits of the last word are zeroed.
 */
void fusedSignPack(const int32_t *s, size_t n, uint64_t *out);

/** Bit-serial oracle for fusedSignPack (one set() per cycle). */
void referenceSignPack(const int32_t *s, size_t n, uint64_t *out);

/**
 * Binary-domain pooling over the four window pre-activations of one
 * pixel row: out[p] = max (max pooling) or sum (average pooling — the
 * sum carries the sign of the mean, which is all the popcount-sign
 * activation consumes) of windows[4p .. 4p + 4).
 */
void fusedBinaryPool4(const int32_t *windows, size_t n_pixels,
                      bool max_pool, int32_t *out);

/** Naive per-window oracle for fusedBinaryPool4. */
void referenceBinaryPool4(const int32_t *windows, size_t n_pixels,
                          bool max_pool, int32_t *out);

// ------- Batch-axis (weight-stationary) kernel variants -----------
//
// The *MultiBatch kernels run one filter block against a whole
// micro-batch of images in a single pass: each weight word is loaded
// once and XNOR'd against the corresponding input word of every image
// before the kernel advances to the next word, so the block's weight
// slice stays in registers/L1 while the activations stream. Operands
// are addressed batch-major: the caller passes the image-0 views of
// the input window plus one per-tap word stride (0 for shared streams
// like the bias line), and image b's tap t words sit at
// xs0[t].words + b * x_strides[t] — the BatchStreamArena layout.
// @p images lists the (still-active) image indices to evaluate, which
// is how Progressive early exit removes an image mid-stream without
// disturbing the others.

/** Weight-slice size (bytes) below which the batch kernel runs images
 *  in the outer loop instead of words: a slice this small stays L1-
 *  resident across the whole micro-batch regardless of loop order, and
 *  image-outer keeps each image's input window L1-hot too (word-outer
 *  touches taps * images input words per word, which thrashes L1 for
 *  small conv blocks). Larger slices stream word-outer so each weight
 *  read is amortized over every image. */
constexpr size_t kImageOuterSliceBytes = 32 * 1024;

/**
 * Batch-axis fusedProductCountsMulti: for every active position j
 * (image index images[j]), bit-exact with fusedProductCountsMulti over
 * the operand views {xs0[t].words + images[j] * x_strides[t],
 * block.length}. Counts for lane f, active position j, segment-local
 * cycle i land at out[j * image_stride + f * lane_stride + i].
 * Runs the same fold as fusedProductCountsMulti; weight slices under
 * kImageOuterSliceBytes take the image-outer order, larger ones the
 * word-outer order (bit-identical counts either way). The engine runs
 * the plane form below; this counts twin keeps servebench's
 * sc.product_counts_multi_batch probe and the fold's counts emitter at
 * batch shape under test.
 */
void fusedProductCountsMultiBatch(const std::vector<BitstreamView> &xs0,
                                  const std::vector<size_t> &x_strides,
                                  const uint32_t *images, size_t n_images,
                                  const WeightBlockView &block,
                                  bool approximate, size_t begin_word,
                                  size_t end_word, uint16_t *out,
                                  size_t lane_stride, size_t image_stride);

/** Planes needed to hold a column count over @p taps product lines:
 *  the canonical binary width of the maximum count. */
size_t planeCapForTaps(size_t taps);

/**
 * Plane-emitting fusedProductCountsMultiBatch: the same carry-save
 * fold, operand addressing and adaptive loop order, but each word's
 * column counts are stored as their @p plane_cap canonical bit-planes
 * plus the leading-lines parity word instead of being transposed into
 * per-cycle uint16 counts, in the pixel-minor sc::simd::PlaneTile
 * layout: row r of active position j, range-local word q holds the
 * kFilterLanes lanes side by side at out[j * image_stride +
 * (q * (plane_cap + 1) + r) * row_stride], rows 0 .. plane_cap - 1 the
 * planes and row plane_cap the parity word. Whole rows are written, the
 * lanes past block.lanes with the counts of the block's zero padding.
 * The pad cycles of the stream's partial tail word read zero in every
 * row. plane_cap must be >= planeCapForTaps(block.taps) and
 * <= kMaxCarrySavePlanes, row_stride >= kFilterLanes. Every APC stage
 * of the engine and its output layer consume this form: segment sums
 * come from plane popcounts, an activation's counts straight from the
 * forwarded plane bits (see blocks::binaryMaxPoolPlanesBatch and
 * BtanhBatchTable::transformTile), and an average-pooled stage's from
 * sc::simd::tileCounts.
 */
void fusedProductPlanesMultiBatch(const std::vector<BitstreamView> &xs0,
                                  const std::vector<size_t> &x_strides,
                                  const uint32_t *images, size_t n_images,
                                  const WeightBlockView &block,
                                  bool approximate, size_t begin_word,
                                  size_t end_word, uint64_t *out,
                                  size_t plane_cap, size_t row_stride,
                                  size_t image_stride);

/** Bit-serial oracle for fusedProductCountsMultiBatch (per-image
 *  referenceProductCountsMulti over the shifted views). */
void referenceProductCountsMultiBatch(
    const std::vector<BitstreamView> &xs0,
    const std::vector<size_t> &x_strides, const uint32_t *images,
    size_t n_images, const WeightBlockView &block, bool approximate,
    size_t begin_word, size_t end_word, uint16_t *out, size_t lane_stride,
    size_t image_stride);

/**
 * Shift an image-0 operand window to image @p image: view t of @p out
 * is {xs0[t].words + image * x_strides[t], xs0[t].length}. The MUX
 * batch path and the batch reference twin use this to drive the
 * per-image kernels from one gathered window.
 */
void shiftViewsForImage(const std::vector<BitstreamView> &xs0,
                        const std::vector<size_t> &x_strides, size_t image,
                        std::vector<BitstreamView> &out);

/**
 * Reusable per-thread scratch for the network engine: one
 * instance per worker chunk holds the shared image-0 operand window,
 * the per-tap strides and the batch-major product blocks
 * ([window][image][lane][word]) of each MUX work item awaiting its
 * pixel tile (the APC stages' plane tile, the pooling buffers and the
 * FSM pointer tables live in the tile). The count block is the
 * Reference oracle's, which pools each item on the spot.
 */
struct BatchFusedWorkspace
{
    std::vector<BitstreamView> xs0;    //!< image-0 operand views
    std::vector<size_t> x_strides;     //!< per-tap image word strides
    std::vector<BitstreamView> xs_img; //!< shifted views (MUX)
    std::vector<uint16_t> selects;     //!< one image's MUX selects
    std::vector<uint16_t> counts;      //!< [window][image][lane][cycle]
    std::vector<uint64_t> products;    //!< [item][window][image][lane][word]
};

} // namespace sc
} // namespace scdcnn

#endif // SCDCNN_SC_FUSED_H
