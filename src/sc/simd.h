/**
 * @file
 * Runtime-dispatched SIMD kernels for the word-parallel hot paths.
 *
 * The portable scalar implementations in sc/fused.cc and
 * blocks/pooling.cc are the always-built default and the correctness
 * oracle; the AVX2 and AVX-512 variants here are selected at runtime
 * when the host CPU supports them and must be bit-exact with the scalar
 * paths (the dispatch rule DESIGN.md documents, enforced by
 * tests/test_simd.cc).
 *
 * Kernels:
 *  - vectorProductFold: the one filter-blocked XNOR + Harley-Seal
 *    carry-save fold behind fusedProductCountsMulti,
 *    fusedProductCountsMultiBatch and fusedProductPlanesMultiBatch, for
 *    one operand window or a weight-stationary micro-batch, emitting
 *    counts or bit-planes (the block-level counters and inner products
 *    reach it as one-filter callers of fusedProductCountsMulti). Its
 *    schedule is written once over a vector-ops trait and compiled at
 *    two widths: 256-bit AVX2 (one stream word per register) and
 *    512-bit AVX-512 (words w and w + 1 of the four filter lanes in one
 *    register);
 *  - the plane readers (avx2SpreadPlanesWord, avx2PlaneGroupSums,
 *    avx2SpreadWinnerPlanes) of the Figure 8 max-pooling selector;
 *  - avx2SumU16: the segment accumulation of the masked binary
 *    max-pooling kernel and of the output layer's class scores;
 *  - avx2XnorPopcountMulti and avx2BtanhWordsBatch: the binary
 *    backend's inner product and the lane-parallel Btanh step;
 *  - avx2SngUnipolar4: the word-at-a-time SNG body for four streams,
 *    four xoshiro256** generators stepped in the 64-bit lanes.
 *
 * Dispatch: level() is the best of Scalar < Avx2 < Avx512 that the
 * binary carries, the CPU reports, and neither SCDCNN_FORCE_SCALAR nor
 * setLevel() capped. The fold runs its 512-bit body at Avx512 and its
 * 256-bit body at Avx2; every other kernel has one AVX2 body, taken at
 * either SIMD level (enabled()). Callers fall back to the scalar path
 * for tails and small sizes.
 */

#ifndef SCDCNN_SC_SIMD_H
#define SCDCNN_SC_SIMD_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sc/bitstream.h"
#include "sc/rng.h"

namespace scdcnn {
namespace sc {
namespace simd {

/** The SIMD dispatch levels, in increasing order of capability. */
enum class Level : int
{
    Scalar = 0, //!< the portable scalar bodies only
    Avx2 = 1,   //!< AVX2 bodies, the fold one stream word per register
    Avx512 = 2, //!< AVX2 bodies, the fold on AVX-512F/VL word pairs
};

/** The best level this binary and CPU run, Scalar when the
 *  SCDCNN_FORCE_SCALAR environment variable is set (to anything but
 *  empty or "0"). */
Level supportedLevel();

/** The level currently selected: supportedLevel() unless setLevel()
 *  capped it lower. */
Level level();

/** Test hook: select @p lv, capped at supportedLevel() (so a
 *  forced-scalar run stays scalar and a host without AVX-512 runs its
 *  best level instead). */
void setLevel(Level lv);

/** Whether any SIMD level is selected (level() != Scalar): the AVX2
 *  bodies of every kernel but the fold key on this. */
bool enabled();

/** Scalar up to supportedLevel(), in order: the levels a kernel twin
 *  test runs, so a host with AVX-512 still checks the AVX2 bodies. */
std::vector<Level> supportedLevels();

/** "scalar", "avx2" or "avx512": the name benches record. */
const char *levelName(Level lv);

/**
 * One carry-save product fold over a filter block: for every word of
 * [begin_word, end_word) and every image, XNOR each operand word with
 * the kFilterLanes weight words of @c block (filters in the 64-bit
 * vector lanes) and count the product lines per cycle. The result of
 * a (word, image) is emitted in one of two forms:
 *
 *  - counts (@c counts set): per-cycle uint16 counts, lane f, image j,
 *    range-local cycle i at counts[j * image_stride + f * lane_stride
 *    + i], with the approximate-counter LSB (parity of the first
 *    @c parity_lines lines) substituted when parity_lines > 0;
 *  - planes (@c planes set): the @c plane_cap canonical bit-planes of
 *    the counts (planes above the fold's high plane zeroed) and the
 *    leading-lines parity word at index plane_cap, lane f, image j,
 *    range-local word q at planes[j * image_stride + f * lane_stride
 *    + q * (plane_cap + 1)]. Segment sums follow from plane popcounts
 *    and per-cycle counts are recovered exactly by
 *    avx2SpreadPlanesWord, so the Figure 8 selector only transposes
 *    the input it forwards.
 *
 * Operands are addressed through one table of tap word pointers:
 * image position j's tap t words start at x[j * block.taps + t]. The
 * caller builds it once per call, from one window (n_images == 1) or
 * from a weight-stationary micro-batch's image-0 views and per-tap
 * image strides (stride 0 shares a line, e.g. the bias stream), so the
 * fold's inner loop loads one pointer per line. Each word's weight row
 * is folded against every image before the loop advances. Exactly
 * block.lanes lanes are written. sc/fused.cc's scalar body and
 * vectorProductFold below implement the same contract bit for bit. The
 * vector body requires parity_lines to be 0 or the approximate
 * counter's min(4, block.taps), and plane_cap <= kMaxCarrySavePlanes.
 */
struct ProductFold
{
    const uint64_t *const *x = nullptr; //!< n_images * block.taps tap words
    size_t n_images = 1;
    WeightBlockView block;
    size_t parity_lines = 0;
    size_t begin_word = 0, end_word = 0;
    uint16_t *counts = nullptr; //!< counts form output
    uint64_t *planes = nullptr; //!< plane form output
    size_t plane_cap = 0;
    size_t lane_stride = 0, image_stride = 0;
};

/**
 * SIMD body of the ProductFold: a Harley-Seal carry-save schedule
 * (ones/twos/fours/eights accumulators fed by full adders, a binary
 * counter of the sixteens) that leaves the canonical binary digits of
 * every column count. At Level::Avx512 it runs on word pairs, words w
 * and w + 1 of the four filter lanes in one 512-bit register, and an
 * odd full word takes the 256-bit body; at Level::Avx2 the 256-bit
 * body takes every word. Covers the full words of the range only (a
 * word is full when all 64 of its cycles lie inside block.length); the
 * stream's partial tail word stays with the scalar body.
 *
 * @return the number of words processed from begin_word (the scalar
 *         caller continues from there); 0 at Level::Scalar.
 */
size_t vectorProductFold(const ProductFold &fold);

/**
 * Transpose one word's canonical count planes back into 64 per-cycle
 * uint16 counts: pw[0 .. n_planes) are the planes (n_planes < 16),
 * pw[n_planes] the parity word; when @p parity is true each count's
 * LSB is replaced by the parity bit (the approximate-counter
 * substitution). Bit-exact with the transposes of the counts kernels.
 * Falls back to a scalar loop when AVX2 is not enabled.
 */
void avx2SpreadPlanesWord(const uint64_t *pw, size_t n_planes,
                          bool parity, uint16_t *out);

/**
 * Segment evidence of the Figure 8 selector on its 16-cycle grid: the
 * per-group count sums of a pooling call's window planes, without
 * materializing any per-cycle counts. bufs[j * n_inputs + k] is pixel
 * j, input k's plane buffer (word q's @p n_planes planes and parity
 * word at + q * pstride, the fusedProductPlanesMultiBatch form).
 * Writes sums[((j * n_words + q) * 4 + g) * 4 + k], the sum of input
 * k's counts over cycles [64q + 16g, 64q + 16g + 16) with the parity
 * substitution when @p parity: one 4-input record per group, inputs
 * k >= n_inputs zero. n_inputs <= 4 and 1 <= n_planes <= 12, so every
 * sum is below 16 * 2^12 and exact in uint16.
 *
 * The AVX2 body sums a word's 4-plane quads vertically in 16-bit lanes
 * (byte popcounts weighted by maddubs, Horner-shifted by 4 per quad)
 * and does one horizontal reduction per word. Its whole-quad loads
 * read up to three words past each word's parity slot: pad every
 * buffer's tail by four words.
 */
void avx2PlaneGroupSums(const uint64_t *const *bufs, size_t n_pixels,
                        size_t n_inputs, size_t pstride, size_t n_words,
                        size_t n_planes, bool parity, uint16_t *sums);

/**
 * The Figure 8 selector's forwarding over the same buffers: group g of
 * word q of pixel j emits input winners[(j * n_words + q) * 4 + g]'s
 * counts into outs[j][64q + 16g, 64q + 16g + 16). Each word's winning
 * groups are muxed into one set of plane words (16-bit fields picked
 * by per-input group masks, no branches), which are then transposed
 * once, as avx2SpreadPlanesWord does — a word whose groups have
 * different winners costs the same as one with a single winner. Every
 * winner byte must be < n_inputs (<= 4); whole words are written. The
 * tail-padding requirement of avx2PlaneGroupSums applies.
 */
void avx2SpreadWinnerPlanes(const uint64_t *const *bufs, size_t n_pixels,
                            size_t n_inputs, size_t pstride,
                            size_t n_words, size_t n_planes, bool parity,
                            const uint8_t *winners, uint16_t *const *outs);

/**
 * Sum of @p n uint16 values (the masked pooling segment accumulator
 * and the output layer's per-segment class score),
 * exact for the full uint16 range and any length (lane accumulators
 * are flushed to 64 bits before they can overflow). Falls back to a
 * scalar loop when AVX2 is not enabled.
 */
uint64_t avx2SumU16(const uint16_t *values, size_t n);

/**
 * Binary XNOR-popcount accumulation over the words of a binary weight
 * block (taps == 1, one packed sign stream per lane): for every word w
 * and lane f, popcount(~(x_words[w] ^ lane word)) is added into
 * matches[f], the partial tail word's pad bits masked off. Initializing
 * matches stays with the scalar caller.
 *
 * @return the number of words processed; 0 when AVX2 is not enabled.
 */
size_t avx2XnorPopcountMulti(const uint64_t *x_words,
                             const WeightBlockView &block,
                             uint32_t *matches);

/**
 * Lane-parallel Btanh batch step: the saturating up/down counter of
 * stream s advances as an int16 lane, 16 streams per register, so the
 * whole micro-batch steps per cycle in a handful of vector ops instead
 * of 16 serial table walks. Stream s consumes counts[s] (one uint16
 * per cycle), writes output words to outs[s], and carries its counter
 * in *states[s] — bit-exact with the scalar saturating step
 * clamp(state + 2c - n_inputs, 0, k - 1), output = state >= k/2.
 *
 * Only whole 64-cycle words are processed; the caller finishes the
 * partial tail word (and masks its pad bits) from the carried states.
 *
 * @return the number of whole words processed per stream; 0 when AVX2
 *         is not enabled or (k, n_inputs) would overflow int16 lanes
 *         (the caller then takes its scalar path for everything).
 */
size_t avx2BtanhWordsBatch(const uint16_t *const *counts, size_t length,
                           uint64_t *const *outs,
                           uint16_t *const *states, size_t n_streams,
                           unsigned k, unsigned n_inputs);

/**
 * Four-stream SNG body: the xoshiro256** generators rngs[0..4) step
 * together in the four 64-bit lanes of one vector (x5 and x9 as
 * shift + add), each draw's 16-bit lanes are compared against stream
 * f's threshold thresholds[f] (sngThreshold; 32-bit compares, so 65536
 * fits), and the nibbles are packed into stream f's words at outs[f]
 * — ceil(length/64) words, tail bits zeroed, 16 draws per full word
 * and ceil(tail/4) for the tail word. Bit-identical with four
 * sngUnipolarInto calls, and the generators are left in the same
 * states.
 *
 * @return false, writing nothing, when AVX2 is not enabled (the caller
 *         then runs the scalar body).
 */
bool avx2SngUnipolar4(const uint32_t *thresholds, Xoshiro256ss *rngs,
                      size_t length, uint64_t *const *outs);

} // namespace simd
} // namespace sc
} // namespace scdcnn

#endif // SCDCNN_SC_SIMD_H
