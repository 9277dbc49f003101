#include "sc/fused.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "sc/counter.h"
#include "sc/popcount.h"
#include "sc/simd.h"

namespace scdcnn {
namespace sc {

namespace {

/** Leading lines whose parity replaces the approximate count's LSB
 *  (none for exact counts). */
size_t
parityLines(bool approximate, size_t n)
{
    return approximate ? std::min(ApproxParallelCounter::kLsbParityLines, n)
                       : 0;
}

/** Shared operand checks of the filter-blocked ranged kernels;
 *  returns the cycle count covered by [begin_word, end_word). */
size_t
checkMultiOperands(const std::vector<BitstreamView> &xs,
                   const WeightBlockView &block, size_t begin_word,
                   size_t end_word)
{
    SCDCNN_ASSERT(block.lanes >= 1 && block.lanes <= kFilterLanes,
                  "bad filter block lane count %zu", block.lanes);
    SCDCNN_ASSERT(xs.size() == block.taps,
                  "operand count %zu != block taps %zu", xs.size(),
                  block.taps);
    SCDCNN_ASSERT(!xs.empty(), "fused kernel called with zero streams");
    for (const auto &s : xs)
        SCDCNN_ASSERT(s.length == block.length, "stream length mismatch");
    const size_t n_words = block.wordCount();
    SCDCNN_ASSERT(begin_word <= end_word && end_word <= n_words,
                  "bad word range [%zu, %zu) for %zu words", begin_word,
                  end_word, n_words);
    // Clamp both ends: an empty range starting at the ragged tail word
    // (begin == end == wordCount, length % 64 != 0) must yield 0, not
    // underflow.
    return std::min(end_word * 64, block.length) -
           std::min(begin_word * 64, block.length);
}

/**
 * Scalar body of the ProductFold (sc/simd.h) over words
 * [w_begin, f.end_word), word outer and image inner: serial carry-save
 * plane insertion per filter lane, the partial tail word masked.
 * kPlanes selects the emitter (plane words or per-cycle counts).
 */
template <bool kPlanes>
void
foldWordsScalar(const simd::ProductFold &f, size_t w_begin)
{
    const WeightBlockView &block = f.block;
    const size_t len = block.length;
    const size_t n_words = block.wordCount();
    const size_t tail = len % 64;
    const uint64_t tail_mask =
        tail == 0 ? ~uint64_t{0} : ((uint64_t{1} << tail) - 1);
    for (size_t w = w_begin; w < f.end_word; ++w) {
        const uint64_t word_mask =
            (w + 1 == n_words) ? tail_mask : ~uint64_t{0};
        const uint64_t *wrow0 = block.at(w, 0);
        // The plane form writes whole rows: the padding lanes too.
        const size_t lanes = kPlanes ? kFilterLanes : block.lanes;
        for (size_t j = 0; j < f.n_images; ++j) {
            const uint64_t *const *x = f.x + j * block.taps;
            uint64_t planes[kFilterLanes][kMaxCarrySavePlanes] = {};
            uint64_t lsbs[kFilterLanes] = {};
            int used = 0; // max over lanes; higher planes stay zero
            const uint64_t *wrow = wrow0;
            for (size_t i = 0; i < block.taps; ++i, wrow += kFilterLanes) {
                const uint64_t xw = x[i][w];
                for (size_t l = 0; l < lanes; ++l) {
                    uint64_t carry = ~(xw ^ wrow[l]) & word_mask;
                    if (i < f.parity_lines)
                        lsbs[l] ^= carry;
                    int p = 0;
                    while (carry != 0) {
                        SCDCNN_ASSERT(p < kMaxCarrySavePlanes,
                                      "too many input streams");
                        const uint64_t t = planes[l][p] & carry;
                        planes[l][p] ^= carry;
                        carry = t;
                        ++p;
                    }
                    used = std::max(used, p);
                }
            }
            if constexpr (kPlanes) {
                // The ripple insertion leaves fully propagated
                // (canonical) digit planes, so used never exceeds the
                // cap and the planes above it stay zero.
                SCDCNN_ASSERT(static_cast<size_t>(used) <= f.plane_cap,
                              "fold used %d planes, cap %zu", used,
                              f.plane_cap);
                uint64_t *img = f.planes + j * f.image_stride +
                                (w - f.begin_word) * (f.plane_cap + 1) *
                                    f.row_stride;
                for (size_t p = 0; p <= f.plane_cap; ++p)
                    for (size_t l = 0; l < kFilterLanes; ++l)
                        img[p * f.row_stride + l] =
                            p == f.plane_cap ? lsbs[l] : planes[l][p];
            } else {
                const size_t limit = std::min<size_t>(64, len - w * 64);
                uint16_t *img = f.counts + j * f.image_stride +
                                (w - f.begin_word) * 64;
                for (size_t l = 0; l < block.lanes; ++l) {
                    uint16_t *dst = img + l * f.lane_stride;
                    for (size_t b = 0; b < limit; ++b) {
                        uint16_t c = 0;
                        for (int p = 0; p < used; ++p)
                            c |= static_cast<uint16_t>(
                                     (planes[l][p] >> b) & 1)
                                 << p;
                        if (f.parity_lines > 0)
                            c = static_cast<uint16_t>(
                                (c & ~uint16_t{1}) |
                                static_cast<uint16_t>((lsbs[l] >> b) & 1));
                        dst[b] = c;
                    }
                }
            }
        }
    }
}

/** One ProductFold: the SIMD body over the full words, the scalar body
 *  over the rest. */
void
runFold(const simd::ProductFold &f)
{
    const size_t w = f.begin_word + simd::vectorProductFold(f);
    if (w == f.end_word)
        return;
    if (f.planes != nullptr)
        foldWordsScalar<true>(f, w);
    else
        foldWordsScalar<false>(f, w);
}

/** A fold's tap word table (simd::ProductFold::x): image position j's
 *  tap t words at xs0[t].words + images[j] * x_strides[t], or the one
 *  window xs0 when @p x_strides is null. The buffer is per thread and
 *  reused, so it is valid until the thread's next call. */
const uint64_t *const *
tapWords(const std::vector<BitstreamView> &xs0, const size_t *x_strides,
         const uint32_t *images, size_t n_images)
{
    thread_local std::vector<const uint64_t *> table;
    const size_t taps = xs0.size();
    table.resize(n_images * taps);
    for (size_t j = 0; j < n_images; ++j)
        for (size_t t = 0; t < taps; ++t)
            table[j * taps + t] =
                xs0[t].words +
                (x_strides != nullptr ? images[j] * x_strides[t] : 0);
    return table.data();
}

/** The operand checks and fold description shared by the batch
 *  kernels; the caller sets the output form. */
simd::ProductFold
batchFold(const std::vector<BitstreamView> &xs0,
          const std::vector<size_t> &x_strides, const uint32_t *images,
          size_t n_images, const WeightBlockView &block, bool approximate,
          size_t begin_word, size_t end_word, size_t lane_stride,
          size_t image_stride)
{
    checkMultiOperands(xs0, block, begin_word, end_word);
    SCDCNN_ASSERT(x_strides.size() == xs0.size(),
                  "stride count %zu != operand count %zu",
                  x_strides.size(), xs0.size());
    return {.x = tapWords(xs0, x_strides.data(), images, n_images),
            .n_images = n_images,
            .block = block,
            .parity_lines = parityLines(approximate, xs0.size()),
            .begin_word = begin_word,
            .end_word = end_word,
            .lane_stride = lane_stride,
            .image_stride = image_stride};
}

/**
 * A batch fold in the loop order its weight working set selects. When
 * the block's weight slice fits in L1, "stationary" is a cache
 * property, not a loop order: iterating images in the outer loop keeps
 * the slice resident across the whole micro-batch anyway, and each
 * image's input-window words stay L1-hot through its word loop (the
 * word-outer order instead touches every image's window per word —
 * taps * images words of footprint, which thrashes L1 for small conv
 * blocks). Large slices (FC arenas, wide conv blocks) stream from
 * memory, so there the word-outer order of the fold bodies is what
 * turns one weight read into n_images uses. Both orders produce
 * bit-identical results.
 */
void
runBatchFold(const simd::ProductFold &f)
{
    const size_t slice_bytes = f.block.taps * kFilterLanes *
                               (f.end_word - f.begin_word) *
                               sizeof(uint64_t);
    if (slice_bytes > kImageOuterSliceBytes) {
        runFold(f);
        return;
    }
    // Image outer: one single-image fold per image.
    simd::ProductFold one = f;
    one.n_images = 1;
    for (size_t j = 0; j < f.n_images; ++j) {
        one.x = f.x + j * f.block.taps;
        if (f.counts != nullptr)
            one.counts = f.counts + j * f.image_stride;
        else
            one.planes = f.planes + j * f.image_stride;
        runFold(one);
    }
}

} // namespace

void
fusedProductCountsMulti(const std::vector<BitstreamView> &xs,
                        const WeightBlockView &block, bool approximate,
                        size_t begin_word, size_t end_word, uint16_t *out,
                        size_t out_stride)
{
    checkMultiOperands(xs, block, begin_word, end_word);
    runFold({.x = tapWords(xs, nullptr, nullptr, 1),
             .block = block,
             .parity_lines = parityLines(approximate, xs.size()),
             .begin_word = begin_word,
             .end_word = end_word,
             .counts = out,
             .lane_stride = out_stride});
}

void
fusedMuxProductMulti(const std::vector<BitstreamView> &xs,
                     const WeightBlockView &block,
                     const std::vector<uint16_t> &selects,
                     size_t begin_word, size_t end_word, uint64_t *out,
                     size_t out_word_stride)
{
    const size_t n_cycles =
        checkMultiOperands(xs, block, begin_word, end_word);
    SCDCNN_ASSERT(selects.size() == n_cycles,
                  "select count %zu != ranged cycle count %zu",
                  selects.size(), n_cycles);
    const size_t len = block.length;
    for (size_t w = begin_word; w < end_word; ++w) {
        const size_t base = (w - begin_word) * 64;
        const size_t limit = std::min<size_t>(64, len - w * 64);
        uint64_t acc[kFilterLanes] = {};
        for (size_t b = 0; b < limit; ++b) {
            const uint16_t k = selects[base + b];
            SCDCNN_ASSERT(k < xs.size(), "select %u out of range",
                          unsigned{k});
            const uint64_t xb = (xs[k].words[w] >> b) & 1;
            const uint64_t *wrow = block.at(w, k);
            for (size_t f = 0; f < block.lanes; ++f)
                acc[f] |= (~(xb ^ (wrow[f] >> b)) & uint64_t{1}) << b;
        }
        for (size_t f = 0; f < block.lanes; ++f)
            out[f * out_word_stride + (w - begin_word)] = acc[f];
    }
}

void
fusedProductCountsMultiBatch(const std::vector<BitstreamView> &xs0,
                             const std::vector<size_t> &x_strides,
                             const uint32_t *images, size_t n_images,
                             const WeightBlockView &block, bool approximate,
                             size_t begin_word, size_t end_word,
                             uint16_t *out, size_t lane_stride,
                             size_t image_stride)
{
    simd::ProductFold f =
        batchFold(xs0, x_strides, images, n_images, block, approximate,
                  begin_word, end_word, lane_stride, image_stride);
    f.counts = out;
    runBatchFold(f);
}

size_t
planeCapForTaps(size_t taps)
{
    return static_cast<size_t>(std::bit_width(taps));
}

void
fusedProductPlanesMultiBatch(const std::vector<BitstreamView> &xs0,
                             const std::vector<size_t> &x_strides,
                             const uint32_t *images, size_t n_images,
                             const WeightBlockView &block, bool approximate,
                             size_t begin_word, size_t end_word,
                             uint64_t *out, size_t plane_cap,
                             size_t row_stride, size_t image_stride)
{
    simd::ProductFold f =
        batchFold(xs0, x_strides, images, n_images, block, approximate,
                  begin_word, end_word, 0, image_stride);
    SCDCNN_ASSERT(plane_cap >= planeCapForTaps(block.taps) &&
                      plane_cap <= kMaxCarrySavePlanes,
                  "plane cap %zu outside [%zu, %d] for %zu taps", plane_cap,
                  planeCapForTaps(block.taps), kMaxCarrySavePlanes,
                  block.taps);
    SCDCNN_ASSERT(row_stride >= kFilterLanes,
                  "plane row stride %zu below the %zu lanes", row_stride,
                  kFilterLanes);
    f.planes = out;
    f.plane_cap = plane_cap;
    f.row_stride = row_stride;
    runBatchFold(f);
}

void
referenceProductCountsMultiBatch(const std::vector<BitstreamView> &xs0,
                                 const std::vector<size_t> &x_strides,
                                 const uint32_t *images, size_t n_images,
                                 const WeightBlockView &block,
                                 bool approximate, size_t begin_word,
                                 size_t end_word, uint16_t *out,
                                 size_t lane_stride, size_t image_stride)
{
    SCDCNN_ASSERT(x_strides.size() == xs0.size(),
                  "stride count %zu != operand count %zu",
                  x_strides.size(), xs0.size());
    std::vector<BitstreamView> xs_img(xs0.size());
    for (size_t j = 0; j < n_images; ++j) {
        shiftViewsForImage(xs0, x_strides, images[j], xs_img);
        referenceProductCountsMulti(xs_img, block, approximate,
                                    begin_word, end_word,
                                    out + j * image_stride, lane_stride);
    }
}

void
shiftViewsForImage(const std::vector<BitstreamView> &xs0,
                   const std::vector<size_t> &x_strides, size_t image,
                   std::vector<BitstreamView> &out)
{
    SCDCNN_ASSERT(x_strides.size() == xs0.size(),
                  "stride count %zu != operand count %zu",
                  x_strides.size(), xs0.size());
    out.resize(xs0.size());
    for (size_t i = 0; i < xs0.size(); ++i)
        out[i] = BitstreamView(xs0[i].words + image * x_strides[i],
                               xs0[i].length);
}

void
referenceProductCountsMulti(const std::vector<BitstreamView> &xs,
                            const WeightBlockView &block, bool approximate,
                            size_t begin_word, size_t end_word,
                            uint16_t *out, size_t out_stride)
{
    const size_t n_cycles =
        checkMultiOperands(xs, block, begin_word, end_word);
    const size_t n = xs.size();
    const size_t parity_lines =
        std::min(ApproxParallelCounter::kLsbParityLines, n);
    const size_t c0 = begin_word * 64;
    for (size_t f = 0; f < block.lanes; ++f) {
        for (size_t i = 0; i < n_cycles; ++i) {
            const size_t cycle = c0 + i;
            uint16_t c = 0;
            uint16_t lsb = 0;
            for (size_t t = 0; t < n; ++t) {
                const uint16_t bit =
                    xs[t].get(cycle) == block.get(f, t, cycle) ? 1 : 0;
                c = static_cast<uint16_t>(c + bit);
                if (t < parity_lines)
                    lsb ^= bit;
            }
            if (approximate)
                c = static_cast<uint16_t>((c & ~uint16_t{1}) | lsb);
            out[f * out_stride + i] = c;
        }
    }
}

void
referenceMuxProductMulti(const std::vector<BitstreamView> &xs,
                         const WeightBlockView &block,
                         const std::vector<uint16_t> &selects,
                         size_t begin_word, size_t end_word, uint64_t *out,
                         size_t out_word_stride)
{
    const size_t n_cycles =
        checkMultiOperands(xs, block, begin_word, end_word);
    SCDCNN_ASSERT(selects.size() == n_cycles,
                  "select count %zu != ranged cycle count %zu",
                  selects.size(), n_cycles);
    const size_t n_seg_words = end_word - begin_word;
    for (size_t f = 0; f < block.lanes; ++f)
        std::fill(out + f * out_word_stride,
                  out + f * out_word_stride + n_seg_words, uint64_t{0});
    const size_t c0 = begin_word * 64;
    for (size_t i = 0; i < n_cycles; ++i) {
        const uint16_t k = selects[i];
        SCDCNN_ASSERT(k < xs.size(), "select %u out of range",
                      unsigned{k});
        const bool xb = xs[k].get(c0 + i);
        for (size_t f = 0; f < block.lanes; ++f)
            if (xb == block.get(f, k, c0 + i))
                out[f * out_word_stride + i / 64] |= uint64_t{1}
                                                    << (i % 64);
    }
}

void
fillMuxSelects(size_t n_inputs, size_t length, Xoshiro256ss &rng,
               std::vector<uint16_t> &selects)
{
    SCDCNN_ASSERT(n_inputs > 0, "MUX needs at least one input");
    SCDCNN_ASSERT(n_inputs <= kMaxMuxInputs,
                  "MUX fan-in %zu exceeds the uint16_t select range",
                  n_inputs);
    selects.resize(length);
    for (size_t i = 0; i < length; ++i)
        selects[i] = static_cast<uint16_t>(rng.nextBelow(n_inputs));
}

// ------- Binary (L = 1) XNOR-popcount kernels ---------------------

void
fusedXnorPopcountMulti(const BitstreamView &x, const WeightBlockView &block,
                       uint32_t *matches)
{
    SCDCNN_ASSERT(block.taps == 1,
                  "binary weight block has %zu taps, expected 1",
                  block.taps);
    SCDCNN_ASSERT(x.length == block.length,
                  "operand length %zu != block length %zu", x.length,
                  block.length);
    // Fixed-size lane loops: they unroll instead of becoming memset /
    // memcpy calls.
    uint32_t acc[kFilterLanes] = {};
    const size_t n_words = block.wordCount();
    size_t w = simd::avx2XnorPopcountMulti(x.words, block, acc);
    for (; w < n_words; ++w) {
        const size_t hi = std::min<size_t>(64, block.length - w * 64);
        const uint64_t mask =
            hi == 64 ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
        const uint64_t xw = x.words[w];
        const uint64_t *wrow = block.at(w, 0);
        for (size_t f = 0; f < kFilterLanes; ++f)
            if (f < block.lanes)
                acc[f] += popcountSwar(~(xw ^ wrow[f]) & mask);
    }
    for (size_t f = 0; f < kFilterLanes; ++f)
        if (f < block.lanes)
            matches[f] = acc[f];
}

void
referenceXnorPopcountMulti(const BitstreamView &x,
                           const WeightBlockView &block, uint32_t *matches)
{
    SCDCNN_ASSERT(block.taps == 1,
                  "binary weight block has %zu taps, expected 1",
                  block.taps);
    SCDCNN_ASSERT(x.length == block.length,
                  "operand length %zu != block length %zu", x.length,
                  block.length);
    for (size_t f = 0; f < block.lanes; ++f) {
        uint32_t m = 0;
        for (size_t i = 0; i < block.length; ++i)
            if (x.get(i) == block.get(f, 0, i))
                ++m;
        matches[f] = m;
    }
}

void
fusedSignPack(const int32_t *s, size_t n, uint64_t *out)
{
    const size_t n_words = (n + 63) / 64;
    for (size_t w = 0; w < n_words; ++w) {
        const size_t hi = std::min<size_t>(64, n - w * 64);
        uint64_t word = 0;
        for (size_t b = 0; b < hi; ++b)
            word |= static_cast<uint64_t>(s[w * 64 + b] >= 0) << b;
        out[w] = word;
    }
}

void
referenceSignPack(const int32_t *s, size_t n, uint64_t *out)
{
    const size_t n_words = (n + 63) / 64;
    for (size_t w = 0; w < n_words; ++w)
        out[w] = 0;
    for (size_t i = 0; i < n; ++i)
        if (s[i] >= 0)
            out[i / 64] |= uint64_t{1} << (i % 64);
}

void
fusedBinaryPool4(const int32_t *windows, size_t n_pixels, bool max_pool,
                 int32_t *out)
{
    if (max_pool) {
        for (size_t p = 0; p < n_pixels; ++p) {
            const int32_t *w = windows + 4 * p;
            out[p] = std::max(std::max(w[0], w[1]),
                              std::max(w[2], w[3]));
        }
    } else {
        for (size_t p = 0; p < n_pixels; ++p) {
            const int32_t *w = windows + 4 * p;
            out[p] = w[0] + w[1] + w[2] + w[3];
        }
    }
}

void
referenceBinaryPool4(const int32_t *windows, size_t n_pixels,
                     bool max_pool, int32_t *out)
{
    for (size_t p = 0; p < n_pixels; ++p) {
        int32_t acc = windows[4 * p];
        for (size_t w = 1; w < 4; ++w)
            acc = max_pool ? std::max(acc, windows[4 * p + w])
                           : acc + windows[4 * p + w];
        out[p] = acc;
    }
}

} // namespace sc
} // namespace scdcnn
