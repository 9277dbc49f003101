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
 *  - the pixel-tile kernels of the APC stages (tileGroupSums,
 *    tileSelectorWalk, tileBtanh): a tile's count planes pixel-minor,
 *    one pixel per vector lane from the group sums through the Figure 8
 *    walk to the Btanh counters (the fc stages' activation too, as a
 *    one-input tile). They are written once over a width trait too
 *    (sc/simd_tile.inc): 256-bit bodies on 16-pixel chunks and, at
 *    Avx512, 512-bit bodies on 32-pixel chunks;
 *  - tileCounts: one tile pixel's per-cycle counts, the average-pooled
 *    APC stages' input to the signed mean, through the fold's counts
 *    emitter transpose;
 *  - tileCountSums: every pixel's count sum over a one-input tile, the
 *    output layer's class scores;
 *  - avx2XnorPopcountMulti: the binary backend's inner product;
 *  - avx2SngUnipolar4: the word-at-a-time SNG body for four streams,
 *    four xoshiro256** generators stepped in the 64-bit lanes.
 *
 * Dispatch: level() is the best of Scalar < Avx2 < Avx512 that the
 * binary carries, the CPU reports, and neither SCDCNN_FORCE_SCALAR nor
 * setLevel() capped. The fold and the tile kernels run their 512-bit
 * bodies at Avx512 and their 256-bit bodies at Avx2; every other kernel
 * has one AVX2 body, taken at either SIMD level (enabled()). Callers
 * fall back to the scalar path for tails and small sizes.
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
    Avx512 = 2, //!< AVX2 bodies, the fold and tiles on AVX-512F/VL/BW
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
 *    leading-lines parity word as row plane_cap, pixel-minor: row r of
 *    range-local word q of image j holds the kFilterLanes lanes
 *    contiguously at planes[j * image_stride + (q * (plane_cap + 1) +
 *    r) * row_stride], the order the fold's register holds them, so a
 *    row is stored without a transpose (the PlaneTile layout). Lanes
 *    past block.lanes carry the counts of the block's zero padding.
 *    Segment sums follow from plane popcounts and per-cycle counts
 *    from the planes' bits, so the Figure 8 selector never transposes
 *    a losing window.

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
    size_t lane_stride = 0; //!< counts form: lane to lane
    size_t row_stride = 0;  //!< plane form: row to row
    size_t image_stride = 0;
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
 * An APC stage's tile of count planes, pixel-minor: for every (input
 * window k, range-local word q, row r) the tile's pixels sit contiguous,
 * one uint64_t each, at row(k, q, r)[pixel]. Rows 0 .. plane_cap - 1 are
 * the canonical count planes and row plane_cap the leading-lines parity
 * word (the fusedProductPlanesMultiBatch form, which writes a tile with
 * row_stride = pixel_stride and image_stride = kFilterLanes). Count
 * digit p sits in row digitRow(p): the parity word replaces plane 0 when
 * @c parity (the approximate-counter substitution).
 */
struct PlaneTile
{
    const uint64_t *planes = nullptr;
    size_t n_inputs = 0;     //!< pooling windows, 1 .. 4 (fc: 1)
    size_t n_words = 0;      //!< range words
    size_t plane_cap = 0;    //!< count planes per word, 1 .. 15
    size_t pixel_stride = 0; //!< pixels per row, a multiple of 16
    bool parity = false;

    const uint64_t *row(size_t k, size_t q, size_t r) const
    {
        return planes +
               ((k * n_words + q) * (plane_cap + 1) + r) * pixel_stride;
    }

    size_t digitRow(size_t p) const
    {
        return p == 0 && parity ? plane_cap : p;
    }
};

/*
 * The pixel-tile kernels. Each covers pixels [0, n_pixels) of a tile
 * (n_pixels <= pixel_stride); the vector bodies run whole chunks of 16
 * pixels, or 32 at Avx512 where the stride holds them, so lanes up to
 * the chunk's end may be written too, with unspecified values. Group g
 * of word q is cycles [64q + 16g, 64q + 16g + 16) of the range. Each
 * kernel has a scalar body, taken at Level::Scalar and bit-exact with
 * the vector bodies (tests/test_pooling.cc, tests/test_fsm_batch.cc).
 */

/**
 * Segment evidence of the Figure 8 selector on its 16-cycle grid: the
 * count sum of input k over group g of word q for pixel px, at
 * sums[((q * 4 + g) * 4 + k) * pixel_stride + px], with the parity
 * substitution; inputs k >= n_inputs read zero. plane_cap is 1 .. 12,
 * so every sum is below 16 * 2^12 and exact in uint16. The vector
 * bodies take per-byte popcounts by a nibble lookup, stack up to five
 * planes by doubling in bytes, and widen once per stack into 16-bit
 * group fields.
 */
void tileGroupSums(const PlaneTile &tile, size_t n_pixels, uint16_t *sums);

/**
 * The Figure 8 walk over tileGroupSums' sums, one pixel per lane: for
 * each of @p n_groups groups, record the selected input as the group's
 * winner, add the group's sums to the carried counters and, where
 * steps[g] & 1, select the first maximum (strict >, so ties go to the
 * lower input); where steps[g] & 2, zero the counters after. Counters
 * sit at counters[k * pixel_stride + px] for k < 4 (rows past the
 * tile's inputs zero), selections at selected[px]. Winners land at
 * winners[(q * pixel_stride + px) * 4 + g]; groups past n_groups in the
 * last word repeat the final selection. The vector bodies run the
 * counters in 32-bit lanes, taken only when no counter can reach 2^31
 * within the call (sums are below 16 << plane_cap); otherwise, and at
 * Level::Scalar, the 64-bit scalar walk runs.
 */
void tileSelectorWalk(const uint16_t *sums, const uint8_t *steps,
                      size_t n_groups, size_t plane_cap,
                      size_t pixel_stride, size_t n_pixels,
                      uint64_t *counters, uint32_t *selected,
                      uint8_t *winners);

/**
 * The Btanh over a tile's forwarded counts: group g of word q of pixel
 * px reads input winners[(q * pixel_stride + px) * 4 + g]'s planes
 * (each winner < n_inputs), and every cycle of [0, n_cycles) steps the
 * pixel's saturating counter states[px] to clamp(state + 2c - n_inputs,
 * 0, k - 1), emitting state >= k / 2 as bit i % 64 of
 * outs[(i / 64) * pixel_stride + px] (pad cycles past n_cycles emit 0
 * and do not step). The vector bodies mux the winners' plane words per
 * 16-bit group field, regroup every plane row into one 16-bit lane per
 * pixel, transpose the planes' bits into per-cycle counts in bytes (a
 * lone ninth digit is read per cycle from its plane instead) and step
 * every pixel's counter at once. They run when k <= 8192 and
 * n_inputs <= 4096, which keeps the unsigned saturating 16-bit step
 * exact; the scalar body runs otherwise.
 */
void tileBtanh(const PlaneTile &tile, const uint8_t *winners,
               size_t n_pixels, size_t n_cycles, unsigned k,
               unsigned n_inputs, uint16_t *states, uint64_t *outs);

/**
 * The per-cycle counts of input @p k of tile pixel @p px, all
 * tile.n_words * 64 cycles (pad cycles included): count digit p from
 * row digitRow(p), so the parity word stands in for plane 0 when
 * tile.parity. The SIMD body is the fold's counts emitter transpose,
 * at either SIMD level; the scalar body reads the bits one cycle at a
 * time.
 */
void tileCounts(const PlaneTile &tile, size_t k, size_t px,
                uint16_t *counts);

/**
 * The count sums of a one-input tile's pixels over all its words, the
 * output layer's per-segment class scores: sums[px] = sum over words q
 * and digits p of popcount(row(0, q, digitRow(p))[px]) << p, for px <
 * n_pixels. The SIMD body counts four pixels' words per register (a
 * nibble lookup and a byte sum per 64-bit lane), at either SIMD level;
 * the scalar body calls sc::popcountSwar.
 */
void tileCountSums(const PlaneTile &tile, size_t n_pixels, uint64_t *sums);

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
