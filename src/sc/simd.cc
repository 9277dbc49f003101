#include "sc/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "sc/fused.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define SCDCNN_SIMD_X86 1
#include <immintrin.h>
#else
#define SCDCNN_SIMD_X86 0
#endif

namespace scdcnn {
namespace sc {
namespace simd {

namespace {

/** -1 = not yet decided, 0 = scalar, 1 = AVX2. */
std::atomic<int> g_enabled{-1};

/** SCDCNN_FORCE_SCALAR forces the scalar path when set to anything
 *  but empty or "0" (so FORCE_SCALAR=0 keeps AVX2 selected). */
bool
forcedScalar()
{
    const char *v = std::getenv("SCDCNN_FORCE_SCALAR");
    return v != nullptr && *v != '\0' && !(v[0] == '0' && v[1] == '\0');
}

int
decide()
{
    const int on = available() && !forcedScalar() ? 1 : 0;
    g_enabled.store(on, std::memory_order_relaxed);
    return on;
}

} // namespace

bool
available()
{
#if SCDCNN_SIMD_X86
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

bool
enabled()
{
    int state = g_enabled.load(std::memory_order_relaxed);
    if (state < 0)
        state = decide();
    return state == 1;
}

void
setEnabled(bool on)
{
    g_enabled.store(on && available() && !forcedScalar() ? 1 : 0,
                    std::memory_order_relaxed);
}

namespace {

/** Scalar twin of the spreadWord transpose. */
void
spreadWordScalar(const uint64_t *pw, size_t n_planes, bool parity,
                 uint16_t *out)
{
    for (size_t b = 0; b < 64; ++b) {
        uint16_t c = 0;
        for (size_t j = 0; j < n_planes; ++j)
            c |= static_cast<uint16_t>((pw[j] >> b) & 1) << j;
        if (parity)
            c = static_cast<uint16_t>(
                (c & ~uint16_t{1}) |
                static_cast<uint16_t>((pw[n_planes] >> b) & 1));
        out[b] = c;
    }
}

/** Scalar twin of the avx2PlaneGroupSums reduction. */
void
planeGroupSumsScalar(const uint64_t *const *bufs, size_t n_pixels,
                     size_t n_inputs, size_t pstride, size_t n_words,
                     size_t n_planes, bool parity, uint16_t *sums)
{
    for (size_t j = 0; j < n_pixels; ++j)
        for (size_t q = 0; q < n_words; ++q) {
            uint16_t *rec = sums + (j * n_words + q) * 16;
            std::fill(rec, rec + 16, uint16_t{0});
            for (size_t k = 0; k < n_inputs; ++k) {
                const uint64_t *pw = bufs[j * n_inputs + k] + q * pstride;
                for (size_t p = 0; p < n_planes; ++p) {
                    const uint64_t v =
                        p == 0 && parity ? pw[n_planes] : pw[p];
                    for (size_t g = 0; g < 4; ++g)
                        rec[g * 4 + k] = static_cast<uint16_t>(
                            rec[g * 4 + k] +
                            (__builtin_popcountll((v >> (16 * g)) &
                                                  0xFFFF)
                             << p));
                }
            }
        }
}

/** Scalar twin of avx2SpreadWinnerPlanes. */
void
spreadWinnerPlanesScalar(const uint64_t *const *bufs, size_t n_pixels,
                         size_t n_inputs, size_t pstride, size_t n_words,
                         size_t n_planes, bool parity,
                         const uint8_t *winners, uint16_t *const *outs)
{
    uint64_t fwd[16];
    for (size_t j = 0; j < n_pixels; ++j)
        for (size_t q = 0; q < n_words; ++q) {
            const uint8_t *win = winners + (j * n_words + q) * 4;
            std::fill(fwd, fwd + n_planes + 1, uint64_t{0});
            for (size_t g = 0; g < 4; ++g) {
                const uint64_t *pw =
                    bufs[j * n_inputs + win[g]] + q * pstride;
                const uint64_t mask = uint64_t{0xFFFF} << (16 * g);
                for (size_t p = 0; p <= n_planes; ++p)
                    fwd[p] |= pw[p] & mask;
            }
            spreadWordScalar(fwd, n_planes, parity, outs[j] + q * 64);
        }
}

} // namespace

#if SCDCNN_SIMD_X86

namespace {

/** Per-byte popcount: nibble lookup via PSHUFB. */
__attribute__((target("avx2"))) inline __m256i
popcountBytes(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2,
        2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i nibble = _mm256_set1_epi8(0x0F);
    const __m256i lo = _mm256_and_si256(v, nibble);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

// --- branch-free carry-save adder tree --------------------------------
//
// A serial plane insertion costs one carry-propagation walk per line
// whose vectorized trip count is the MAXIMUM trailing-carry length over
// all 256 bit columns (measured ~6 data-dependent iterations per line
// on network streams, each with a testz + branch). The fold instead
// reduces lines through a balanced compressor tree with a fixed
// operation schedule: 16 lines fold into 5 bit-planes in 87 bitwise
// ops (~5.4 per line), and each folded block ripple-adds into the
// running plane accumulator.
// No data-dependent branches survive in the hot loop.

/** a + b over @p k bit-planes with carry-in 0; planes a[0..k) are
 *  replaced by the sum, the carry out of plane k-1 is returned. */
__attribute__((target("avx2"))) inline __m256i
addPlanesK(__m256i *a, const __m256i *b, int k)
{
    // First full adder has no carry-in: 2 ops instead of 5.
    __m256i carry = _mm256_and_si256(a[0], b[0]);
    a[0] = _mm256_xor_si256(a[0], b[0]);
    for (int j = 1; j < k; ++j) {
        const __m256i t = _mm256_xor_si256(a[j], b[j]);
        const __m256i g = _mm256_and_si256(a[j], b[j]);
        a[j] = _mm256_xor_si256(t, carry);
        carry = _mm256_or_si256(g, _mm256_and_si256(t, carry));
    }
    return carry;
}

/**
 * Layers 2+ of the 16-line fold: eight (sum, carry) pairs — the first
 * half-adder layer over consecutive product-line pairs — reduce into
 * the 5 bit-planes of the 16 lines' column sums. The first layer is
 * split out so the fold loops can compute it as the products are
 * generated: two product lines at a time stay in registers, instead of
 * 16 live ymm values that the compiler must spill around the tree.
 */
__attribute__((target("avx2"))) inline void
reduce16Pairs(const __m256i s[8], const __m256i c[8], __m256i out[5])
{
    // Two 2-bit sums -> one 3-bit sum, four times (planes s,c -> a0..a2).
    __m256i a0[4], a1[4], a2[4];
    for (int i = 0; i < 4; ++i) {
        const __m256i g0 = _mm256_and_si256(s[2 * i], s[2 * i + 1]);
        a0[i] = _mm256_xor_si256(s[2 * i], s[2 * i + 1]);
        const __m256i t1 = _mm256_xor_si256(c[2 * i], c[2 * i + 1]);
        a1[i] = _mm256_xor_si256(t1, g0);
        a2[i] = _mm256_or_si256(_mm256_and_si256(c[2 * i], c[2 * i + 1]),
                                _mm256_and_si256(t1, g0));
    }
    // Two 3-bit sums -> one 4-bit sum, twice.
    __m256i lo[4], hi[4];
    for (int i = 0; i < 2; ++i) {
        __m256i *dst = i == 0 ? lo : hi;
        dst[0] = a0[2 * i];
        dst[1] = a1[2 * i];
        dst[2] = a2[2 * i];
        const __m256i rhs[3] = {a0[2 * i + 1], a1[2 * i + 1],
                                a2[2 * i + 1]};
        dst[3] = addPlanesK(dst, rhs, 3);
    }
    // The final pair: 4-bit + 4-bit -> 5 planes.
    out[0] = lo[0];
    out[1] = lo[1];
    out[2] = lo[2];
    out[3] = lo[3];
    out[4] = addPlanesK(out, hi, 4);
}

/** Ripple @p carry into the plane accumulator from plane @p j up: the
 *  serial carry-save insertion, growing @p used by at most one. */
__attribute__((target("avx2"), always_inline)) inline void
ripplePlanes(__m256i *planes, int &used, __m256i carry, int j)
{
    while (!_mm256_testz_si256(carry, carry)) {
        SCDCNN_ASSERT(j < kMaxCarrySavePlanes, "too many input streams");
        if (j == used) {
            planes[used++] = carry;
            break;
        }
        const __m256i t = _mm256_and_si256(planes[j], carry);
        planes[j] = _mm256_xor_si256(planes[j], carry);
        carry = t;
        ++j;
    }
}

/**
 * One Horner step of a word transpose: shift the cycle-byte
 * accumulators of cycles 0-31 (@p h0) and 32-63 (@p h1) up one digit
 * and bring in the 64 bits at @p word, one per cycle. A byte shuffle
 * copies byte b of the broadcast word to bytes 8b .. 8b + 7 (shuffles
 * stay inside a 128-bit lane, which holds the whole word) and a bit
 * test turns bit i of the copy into an all-ones byte 8b + i, which
 * the subtraction adds as 1.
 */
__attribute__((target("avx2"), always_inline)) inline void
shiftInPlane(const uint64_t *word, __m256i &h0, __m256i &h1)
{
    const __m256i src0 =
        _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2,
                         2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
    const __m256i src1 =
        _mm256_setr_epi8(4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 6,
                         6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7);
    const __m256i bit = _mm256_set1_epi64x(0x8040201008040201LL);
    const __m256i v = _mm256_broadcastq_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(word)));
    const __m256i b0 = _mm256_and_si256(_mm256_shuffle_epi8(v, src0), bit);
    const __m256i b1 = _mm256_and_si256(_mm256_shuffle_epi8(v, src1), bit);
    h0 = _mm256_sub_epi8(_mm256_add_epi8(h0, h0), _mm256_cmpeq_epi8(b0, bit));
    h1 = _mm256_sub_epi8(_mm256_add_epi8(h1, h1), _mm256_cmpeq_epi8(b1, bit));
}

/**
 * Transpose one word of count planes into its 64 uint16 counts:
 * @p plane(j) points at plane j's word for j < n_planes (n_planes <
 * 16), plane(n_planes) at the parity word, whose bits replace plane 0
 * — each count's LSB — when @p parity (the approximate-counter
 * substitution). Planes 8+ build the counts' high bytes and planes 0-7
 * the low bytes, highest plane first (shiftInPlane, 32 cycles per
 * register), and one byte interleave widens the two into counts.
 */
template <class PlaneAt>
__attribute__((target("avx2"), always_inline)) inline void
spreadWord(const PlaneAt &plane, size_t n_planes, bool parity,
           uint16_t *out)
{
    __m256i lo[2] = {_mm256_setzero_si256(), _mm256_setzero_si256()};
    __m256i hi[2] = {_mm256_setzero_si256(), _mm256_setzero_si256()};
    for (size_t j = n_planes; j-- > 8;)
        shiftInPlane(plane(j), hi[0], hi[1]);
    for (size_t j = std::min<size_t>(n_planes, 8); j-- > 1;)
        shiftInPlane(plane(j), lo[0], lo[1]);
    if (n_planes > 0 || parity)
        shiftInPlane(plane(parity ? n_planes : 0), lo[0], lo[1]);
    for (size_t h = 0; h < 2; ++h) {
        // Interleaving low and high bytes gives cycles 0-7 | 16-23 and
        // 8-15 | 24-31 of the half; the lane permutes put them in order.
        const __m256i a = _mm256_unpacklo_epi8(lo[h], hi[h]);
        const __m256i b = _mm256_unpackhi_epi8(lo[h], hi[h]);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 32 * h),
                            _mm256_permute2x128_si256(a, b, 0x20));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 32 * h + 16),
                            _mm256_permute2x128_si256(a, b, 0x31));
    }
}

/** spreadWord over contiguous planes pw[0 .. n_planes] (the pooling
 *  readers' layout). */
__attribute__((target("avx2"))) void
spreadPlanesWordAvx2(const uint64_t *pw, size_t n_planes, bool parity,
                     uint16_t *out)
{
    spreadWord([pw](size_t j) { return pw + j; }, n_planes, parity, out);
}

/** A fold's planes as stored by storePlanes: lane l of plane p at
 *  [p][l], the parity word in row used. */
using FoldPlaneRows = uint64_t[kMaxCarrySavePlanes + 1][4];

/** All 64 counts of lane @p lane of a fold's plane rows. Indexing the
 *  fixed-size rows lets the plane loop unroll with constant digit
 *  weights. */
__attribute__((target("avx2"), always_inline)) inline void
spreadFoldLane(const FoldPlaneRows &pw, size_t lane, int used, bool parity,
               uint16_t *out)
{
    spreadWord([&pw, lane](size_t j) { return &pw[j][lane]; },
               static_cast<size_t>(used), parity, out);
}

/** Store @p planes[0 .. used) as rows of @p pw, with @p lsb in row
 *  @p used — the layout spreadFoldLane reads. */
__attribute__((target("avx2"), always_inline)) inline void
storePlanes(const __m256i *planes, int used, __m256i lsb, FoldPlaneRows &pw)
{
    for (int j = 0; j < used; ++j)
        _mm256_store_si256(reinterpret_cast<__m256i *>(pw[j]), planes[j]);
    _mm256_store_si256(reinterpret_cast<__m256i *>(pw[used]), lsb);
}

// --- the product fold ---------------------------------------------------

/** Product line t of word w for all filter lanes: the broadcast input
 *  word XNOR the lane weights at @p wlanes. */
template <class XWords>
__attribute__((target("avx2"), always_inline)) inline __m256i
productLine(const XWords &x, size_t t, size_t w, const uint64_t *wlanes)
{
    const __m256i xv = _mm256_set1_epi64x(static_cast<long long>(x(t, w)));
    const __m256i wv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(wlanes));
    return _mm256_xor_si256(_mm256_xor_si256(xv, wv),
                            _mm256_set1_epi8(-1));
}

/**
 * Lines [i, i + 16) of word w through the compressor tree into 5
 * planes (@p wrow points at line i's weight lanes); lines below
 * @p parity_lines also fold into @p lsb. With kPadded, lines at or
 * past @p n are zero, and the caller guarantees parity_lines <= i (so
 * lsb stays out of the tile's register budget). Product pairs feed the
 * tree's first half-adder layer as they are generated, so only two
 * lines are live at a time.
 */
template <bool kPadded, class XWords>
__attribute__((target("avx2"), always_inline)) inline void
foldTile(const XWords &x, size_t w, const uint64_t *wrow, size_t i,
         size_t n, size_t parity_lines, __m256i &lsb, __m256i folded[5])
{
    __m256i s[8], c[8];
    for (int r = 0; r < 8; ++r) {
        const size_t ta = i + 2 * static_cast<size_t>(r);
        __m256i pa = _mm256_setzero_si256();
        __m256i pb = _mm256_setzero_si256();
        if (!kPadded || ta < n)
            pa = productLine(x, ta, w, wrow + (ta - i) * kFilterLanes);
        if (!kPadded || ta + 1 < n)
            pb = productLine(x, ta + 1, w,
                             wrow + (ta + 1 - i) * kFilterLanes);
        if (!kPadded && ta < parity_lines)
            lsb = _mm256_xor_si256(lsb, pa);
        if (!kPadded && ta + 1 < parity_lines)
            lsb = _mm256_xor_si256(lsb, pb);
        s[r] = _mm256_xor_si256(pa, pb);
        c[r] = _mm256_and_si256(pa, pb);
    }
    reduce16Pairs(s, c, folded);
}

/**
 * The per-word fold: all @p n product lines of word w into
 * planes[0 .. used) (64-bit lane f = filter f) plus the leading-lines
 * parity in @p lsb_out; returns used. Lines fold 16 at a time through
 * the fixed-schedule tree; the leftovers take the serial insertion.
 */
template <class XWords>
__attribute__((target("avx2"), always_inline)) inline int
foldWord(const XWords &x, size_t w, const uint64_t *wrow, size_t n,
         size_t parity_lines, __m256i planes[kMaxCarrySavePlanes],
         __m256i &lsb_out)
{
    __m256i lsb = _mm256_setzero_si256();
    int used = 0;
    size_t i = 0;
    for (; i + 16 <= n; i += 16, wrow += 16 * kFilterLanes) {
        __m256i folded[5];
        foldTile<false>(x, w, wrow, i, n, parity_lines, lsb, folded);
        if (used == 0) {
            for (int j = 0; j < 5; ++j)
                planes[j] = folded[j];
            used = 5;
        } else {
            ripplePlanes(planes, used, addPlanesK(planes, folded, 5), 5);
        }
    }
    // Zero-padded final tile: once a full tile has folded (used >= 5,
    // so the accumulator holds 5+ planes and taps >= 16 keeps the
    // plane cap at 5+), a tail of 6 or more lines runs through the
    // same tree with zero lines in the missing slots. Zero lines add
    // nothing to any column count, so the fold is bit-identical to the
    // serial insertion it replaces — at tree ILP instead of a ripple
    // walk per line.
    if (n >= 16 && n - i >= 6 && parity_lines <= i) {
        __m256i folded[5];
        foldTile<true>(x, w, wrow, i, n, parity_lines, lsb, folded);
        ripplePlanes(planes, used, addPlanesK(planes, folded, 5), 5);
        i = n;
    }
    for (; i < n; ++i, wrow += kFilterLanes) {
        const __m256i carry = productLine(x, i, w, wrow);
        if (i < parity_lines)
            lsb = _mm256_xor_si256(lsb, carry);
        ripplePlanes(planes, used, carry, 0);
    }
    lsb_out = lsb;
    return used;
}

/**
 * The fold over the full words [f.begin_word, full_end), word outer and
 * image inner: word w's weight row is re-read from cache for every
 * image. kPlanes selects the emitter (plane words or transposed
 * counts); @p words_of(j) is image position j's x-word accessor.
 */
template <bool kPlanes, class WordsOf>
__attribute__((target("avx2"))) void
foldWords(const ProductFold f, size_t full_end, WordsOf words_of)
{
    const bool parity = f.parity_lines > 0;
    for (size_t w = f.begin_word; w < full_end; ++w) {
        const uint64_t *wrow = f.block.at(w, 0);
        for (size_t j = 0; j < f.n_images; ++j) {
            __m256i planes[kMaxCarrySavePlanes];
            __m256i lsb;
            const int used = foldWord(words_of(j), w, wrow, f.block.taps,
                                      f.parity_lines, planes, lsb);
            alignas(32) FoldPlaneRows pw;
            storePlanes(planes, used, lsb, pw);
            if constexpr (kPlanes) {
                SCDCNN_ASSERT(static_cast<size_t>(used) <= f.plane_cap,
                              "fold used %d planes, cap %zu", used,
                              f.plane_cap);
                uint64_t *img = f.planes + j * f.image_stride +
                                (w - f.begin_word) * (f.plane_cap + 1);
                for (size_t l = 0; l < f.block.lanes; ++l) {
                    uint64_t *dst = img + l * f.lane_stride;
                    size_t p = 0;
                    for (; p < static_cast<size_t>(used); ++p)
                        dst[p] = pw[p][l];
                    for (; p < f.plane_cap; ++p)
                        dst[p] = 0;
                    dst[f.plane_cap] = pw[used][l];
                }
            } else {
                uint16_t *img = f.counts + j * f.image_stride +
                                (w - f.begin_word) * 64;
                for (size_t l = 0; l < f.block.lanes; ++l)
                    spreadFoldLane(pw, l, used, parity,
                                   img + l * f.lane_stride);
            }
        }
    }
}

/** foldWords with the fold's x-word addressing: one unshifted window,
 *  or image images[j] of a batch-major window. */
template <bool kPlanes>
__attribute__((target("avx2"))) void
foldWordsAs(const ProductFold &f, size_t full_end)
{
    if (f.x_strides == nullptr)
        foldWords<kPlanes>(f, full_end,
                           [&](size_t) { return WindowWords{f.xs}; });
    else
        foldWords<kPlanes>(f, full_end, [&](size_t j) {
            return BatchWords{f.xs, f.x_strides, f.images[j]};
        });
}

} // namespace

__attribute__((target("avx2"))) size_t
avx2ProductFold(const ProductFold &fold)
{
    if (!enabled())
        return 0;
    // Full words only: the stream's partial tail word (if the range
    // reaches it) stays with the scalar body, so no tail masking is
    // needed here.
    const size_t full_end =
        std::min(fold.end_word, fold.block.length / 64);
    if (full_end <= fold.begin_word)
        return 0;
    if (fold.planes != nullptr)
        foldWordsAs<true>(fold, full_end);
    else
        foldWordsAs<false>(fold, full_end);
    return full_end - fold.begin_word;
}

void
avx2SpreadPlanesWord(const uint64_t *pw, size_t n_planes, bool parity,
                     uint16_t *out)
{
    SCDCNN_ASSERT(n_planes < 16, "plane count %zu too large", n_planes);
    if (enabled()) {
        spreadPlanesWordAvx2(pw, n_planes, parity, out);
        return;
    }
    spreadWordScalar(pw, n_planes, parity, out);
}

__attribute__((target("avx2"))) static void
planeGroupSumsAvx2(const uint64_t *const *bufs, size_t n_pixels,
                   size_t n_inputs, size_t pstride, size_t n_words,
                   size_t n_planes, bool parity, uint16_t *sums)
{
    // Quad u holds planes [4u, 4u + 4), plane 4u + i in 64-bit lane i
    // (plane 0 swapped for the parity word under the substitution).
    // The byte weights are the planes' digit values 2^i within the
    // quad (zero past the plane count), so maddubs turns the byte
    // popcounts into lane i, 16-bit field g = plane 4u + i's weighted
    // one-count over group g (<= 16 * 8 per byte pair, no
    // saturation). Horner steps of 4 bits stack the quads in the same
    // lanes; every partial sum is part of a final group sum, so none
    // overflows 16 bits.
    const size_t quads = (n_planes + 3) / 4;
    __m256i wts[3];
    for (size_t u = 0; u < quads; ++u) {
        alignas(32) uint8_t w[32];
        for (size_t b = 0; b < 32; ++b)
            w[b] = 4 * u + b / 8 < n_planes
                       ? static_cast<uint8_t>(1u << (b / 8))
                       : 0;
        wts[u] = _mm256_load_si256(reinterpret_cast<const __m256i *>(w));
    }
    for (size_t j = 0; j < n_pixels; ++j) {
        for (size_t q = 0; q < n_words; ++q) {
            __m128i x[4];
            for (size_t k = 0; k < 4; ++k) {
                x[k] = _mm_setzero_si128();
                if (k >= n_inputs)
                    continue;
                const uint64_t *pw = bufs[j * n_inputs + k] + q * pstride;
                __m256i acc = _mm256_setzero_si256();
                for (size_t u = quads; u-- > 0;) {
                    __m256i v = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(pw + 4 * u));
                    if (u == 0 && parity)
                        v = _mm256_blend_epi32(
                            v,
                            _mm256_set1_epi64x(
                                static_cast<long long>(pw[n_planes])),
                            0x03);
                    acc = _mm256_add_epi16(
                        _mm256_slli_epi16(acc, 4),
                        _mm256_maddubs_epi16(popcountBytes(v), wts[u]));
                }
                x[k] = _mm_add_epi16(_mm256_castsi256_si128(acc),
                                     _mm256_extracti128_si256(acc, 1));
            }
            // x[k]'s two qwords are lanes {0, 2} and {1, 3}: fold them,
            // then transpose the (input, group) fields into one
            // 4-input record per group.
            const __m128i s01 =
                _mm_add_epi16(_mm_unpacklo_epi64(x[0], x[1]),
                              _mm_unpackhi_epi64(x[0], x[1]));
            const __m128i s23 =
                _mm_add_epi16(_mm_unpacklo_epi64(x[2], x[3]),
                              _mm_unpackhi_epi64(x[2], x[3]));
            const __m128i t0 = _mm_unpacklo_epi16(s01, s23);
            const __m128i t1 = _mm_unpackhi_epi16(s01, s23);
            uint16_t *rec = sums + (j * n_words + q) * 16;
            _mm_storeu_si128(reinterpret_cast<__m128i *>(rec),
                             _mm_unpacklo_epi16(t0, t1));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(rec + 8),
                             _mm_unpackhi_epi16(t0, t1));
        }
    }
}

void
avx2PlaneGroupSums(const uint64_t *const *bufs, size_t n_pixels,
                   size_t n_inputs, size_t pstride, size_t n_words,
                   size_t n_planes, bool parity, uint16_t *sums)
{
    SCDCNN_ASSERT(n_inputs <= 4, "%zu selector inputs, at most 4",
                  n_inputs);
    SCDCNN_ASSERT(n_planes >= 1 && n_planes <= 12,
                  "plane count %zu outside the uint16 group-sum range",
                  n_planes);
    if (enabled()) {
        planeGroupSumsAvx2(bufs, n_pixels, n_inputs, pstride, n_words,
                           n_planes, parity, sums);
        return;
    }
    planeGroupSumsScalar(bufs, n_pixels, n_inputs, pstride, n_words,
                         n_planes, parity, sums);
}

__attribute__((target("avx2"))) static void
spreadWinnerPlanesAvx2(const uint64_t *const *bufs, size_t n_pixels,
                       size_t n_inputs, size_t pstride, size_t n_words,
                       size_t n_planes, bool parity, const uint8_t *winners,
                       uint16_t *const *outs)
{
    const size_t chunks = (n_planes + 4) / 4; // the planes + parity word
    alignas(32) uint64_t fwd[16];
    for (size_t j = 0; j < n_pixels; ++j) {
        for (size_t q = 0; q < n_words; ++q) {
            // The winner bytes widened to 16-bit fields (winner *
            // 0x0101): comparing them with k * 0x0101 yields input k's
            // mask of won groups in the low 64 bits.
            uint32_t win;
            std::memcpy(&win, winners + (j * n_words + q) * 4, 4);
            const __m128i wv = _mm_cvtsi32_si128(static_cast<int>(win));
            const __m128i wide = _mm_unpacklo_epi8(wv, wv);
            __m256i mask[4];
            for (size_t k = 0; k < n_inputs; ++k)
                mask[k] = _mm256_broadcastq_epi64(_mm_cmpeq_epi16(
                    wide, _mm_set1_epi16(static_cast<short>(k * 0x0101))));
            for (size_t c = 0; c < chunks; ++c) {
                __m256i acc = _mm256_setzero_si256();
                for (size_t k = 0; k < n_inputs; ++k)
                    acc = _mm256_or_si256(
                        acc, _mm256_and_si256(
                                 _mm256_loadu_si256(
                                     reinterpret_cast<const __m256i *>(
                                         bufs[j * n_inputs + k] +
                                         q * pstride + 4 * c)),
                                 mask[k]));
                _mm256_store_si256(reinterpret_cast<__m256i *>(fwd + 4 * c),
                                   acc);
            }
            spreadWord([&fwd](size_t p) { return fwd + p; }, n_planes,
                       parity, outs[j] + q * 64);
        }
    }
}

void
avx2SpreadWinnerPlanes(const uint64_t *const *bufs, size_t n_pixels,
                       size_t n_inputs, size_t pstride, size_t n_words,
                       size_t n_planes, bool parity, const uint8_t *winners,
                       uint16_t *const *outs)
{
    SCDCNN_ASSERT(n_inputs <= 4, "%zu selector inputs, at most 4",
                  n_inputs);
    SCDCNN_ASSERT(n_planes < 16, "plane count %zu too large", n_planes);
    if (enabled()) {
        spreadWinnerPlanesAvx2(bufs, n_pixels, n_inputs, pstride, n_words,
                               n_planes, parity, winners, outs);
        return;
    }
    spreadWinnerPlanesScalar(bufs, n_pixels, n_inputs, pstride, n_words,
                             n_planes, parity, winners, outs);
}

__attribute__((target("avx2"))) static uint64_t
avx2SumU16Impl(const uint16_t *values, size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    uint64_t sum = 0;
    size_t i = 0;
    while (i + 16 <= n) {
        // Zero-extend to 32-bit lanes (full uint16 range) and flush
        // the lane accumulators to 64 bits before they can overflow:
        // each of the 8 lanes gains at most 2 * 65535 per iteration,
        // so 2^14 iterations stay under 2^31.
        __m256i acc = zero;
        const size_t chunk_end =
            std::min(n - (n - i) % 16, i + (size_t{1} << 14) * 16);
        for (; i + 16 <= chunk_end; i += 16) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(values + i));
            acc = _mm256_add_epi32(acc,
                                   _mm256_unpacklo_epi16(v, zero));
            acc = _mm256_add_epi32(acc,
                                   _mm256_unpackhi_epi16(v, zero));
        }
        alignas(32) uint32_t lanes[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
        for (uint32_t l : lanes)
            sum += l;
    }
    for (; i < n; ++i)
        sum += values[i];
    return sum;
}

uint64_t
avx2SumU16(const uint16_t *values, size_t n)
{
    if (!enabled() || n < 32) {
        uint64_t sum = 0;
        for (size_t i = 0; i < n; ++i)
            sum += values[i];
        return sum;
    }
    return avx2SumU16Impl(values, n);
}

/** In-place 16x16 uint16 transpose: m[r] holds row r (16 consecutive
 *  cycles of stream r); afterwards m[c] holds column c (all 16 streams
 *  at cycle c). Three unpack stages + a cross-lane permute. */
__attribute__((target("avx2"))) static void
transpose16x16Epi16(__m256i m[16])
{
    __m256i a[16], b[16];
    for (int i = 0; i < 8; ++i) {
        a[2 * i] = _mm256_unpacklo_epi16(m[2 * i], m[2 * i + 1]);
        a[2 * i + 1] = _mm256_unpackhi_epi16(m[2 * i], m[2 * i + 1]);
    }
    for (int q = 0; q < 4; ++q) {
        b[4 * q + 0] =
            _mm256_unpacklo_epi32(a[4 * q + 0], a[4 * q + 2]);
        b[4 * q + 1] =
            _mm256_unpackhi_epi32(a[4 * q + 0], a[4 * q + 2]);
        b[4 * q + 2] =
            _mm256_unpacklo_epi32(a[4 * q + 1], a[4 * q + 3]);
        b[4 * q + 3] =
            _mm256_unpackhi_epi32(a[4 * q + 1], a[4 * q + 3]);
    }
    // After this stage, a[8h + c] holds streams 8h..8h+7 at cycle c
    // (low lane) and cycle c + 8 (high lane).
    for (int h = 0; h < 2; ++h) {
        for (int j = 0; j < 4; ++j) {
            a[8 * h + 2 * j] =
                _mm256_unpacklo_epi64(b[8 * h + j], b[8 * h + 4 + j]);
            a[8 * h + 2 * j + 1] =
                _mm256_unpackhi_epi64(b[8 * h + j], b[8 * h + 4 + j]);
        }
    }
    for (int c = 0; c < 8; ++c) {
        m[c] = _mm256_permute2x128_si256(a[c], a[8 + c], 0x20);
        m[c + 8] = _mm256_permute2x128_si256(a[c], a[8 + c], 0x31);
    }
}

__attribute__((target("avx2"))) static size_t
avx2BtanhWordsBatchImpl(const uint16_t *const *counts, size_t n_full,
                        uint64_t *const *outs, uint16_t *const *states,
                        size_t n_streams, unsigned k, unsigned n_inputs)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i vmax = _mm256_set1_epi16(static_cast<short>(k - 1));
    const __m256i vthr =
        _mm256_set1_epi16(static_cast<short>(k / 2 - 1));
    const __m256i vn = _mm256_set1_epi16(static_cast<short>(n_inputs));
    for (size_t s0 = 0; s0 < n_streams; s0 += 16) {
        const size_t tile = std::min<size_t>(16, n_streams - s0);
        alignas(32) uint16_t st_buf[16] = {};
        for (size_t s = 0; s < tile; ++s)
            st_buf[s] = *states[s0 + s];
        __m256i st = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(st_buf));
        for (size_t w = 0; w < n_full; ++w) {
            // Four 16-cycle tiles per word: transpose the 16x16 count
            // block so one register holds every stream's count for a
            // cycle, then all counters step together — add, clamp with
            // max/min, compare against the upper-half threshold.
            alignas(32) uint16_t a16[4][16];
            for (int q = 0; q < 4; ++q) {
                __m256i m[16];
                for (size_t s = 0; s < tile; ++s)
                    m[s] = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(
                            counts[s0 + s] + w * 64 +
                            static_cast<size_t>(q) * 16));
                for (size_t s = tile; s < 16; ++s)
                    m[s] = zero;
                transpose16x16Epi16(m);
                __m256i acc = zero;
                for (int cyc = 0; cyc < 16; ++cyc) {
                    const __m256i delta = _mm256_sub_epi16(
                        _mm256_add_epi16(m[cyc], m[cyc]), vn);
                    st = _mm256_add_epi16(st, delta);
                    st = _mm256_max_epi16(st, zero);
                    st = _mm256_min_epi16(st, vmax);
                    acc = _mm256_or_si256(
                        acc,
                        _mm256_and_si256(
                            _mm256_cmpgt_epi16(st, vthr),
                            _mm256_set1_epi16(
                                static_cast<short>(1u << cyc))));
                }
                _mm256_store_si256(
                    reinterpret_cast<__m256i *>(a16[q]), acc);
            }
            for (size_t s = 0; s < tile; ++s)
                outs[s0 + s][w] =
                    static_cast<uint64_t>(a16[0][s]) |
                    (static_cast<uint64_t>(a16[1][s]) << 16) |
                    (static_cast<uint64_t>(a16[2][s]) << 32) |
                    (static_cast<uint64_t>(a16[3][s]) << 48);
        }
        _mm256_store_si256(reinterpret_cast<__m256i *>(st_buf), st);
        for (size_t s = 0; s < tile; ++s)
            *states[s0 + s] = st_buf[s];
    }
    return n_full;
}

size_t
avx2BtanhWordsBatch(const uint16_t *const *counts, size_t length,
                    uint64_t *const *outs, uint16_t *const *states,
                    size_t n_streams, unsigned k, unsigned n_inputs)
{
    if (!enabled())
        return 0;
    // int16 lane bounds: an approximate counter can report up to
    // 2 * n_inputs, so |state + delta| < k + 4 * n_inputs must stay
    // inside the signed-16 range.
    if (k > 8192 || n_inputs > 4096)
        return 0;
    const size_t n_full = length / 64;
    if (n_full == 0 || n_streams == 0)
        return 0;
    return avx2BtanhWordsBatchImpl(counts, n_full, outs, states,
                                   n_streams, k, n_inputs);
}

__attribute__((target("avx2"))) size_t
avx2XnorPopcountMulti(const uint64_t *x_words, const WeightBlockView &block,
                      uint32_t *matches)
{
    if (!enabled())
        return 0;
    const size_t full = block.length / 64;
    const __m256i all_ones = _mm256_set1_epi8(-1);
    const __m256i zero = _mm256_setzero_si256();
    // Lane f of the 64-bit accumulator carries filter f's running
    // match count; psadbw folds each match word's byte popcounts into
    // its lane, so the loop is one broadcast, one vector load and four
    // cheap vector ops per input word for all kFilterLanes filters.
    __m256i acc = zero;
    for (size_t w = 0; w < full; ++w) {
        const __m256i xv =
            _mm256_set1_epi64x(static_cast<long long>(x_words[w]));
        const __m256i wv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(block.at(w, 0)));
        const __m256i match =
            _mm256_xor_si256(_mm256_xor_si256(xv, wv), all_ones);
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(popcountBytes(match), zero));
    }
    if (block.length % 64 != 0) {
        // The partial tail word, its pad bits masked off.
        const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(
            (uint64_t{1} << (block.length % 64)) - 1));
        const __m256i xv =
            _mm256_set1_epi64x(static_cast<long long>(x_words[full]));
        const __m256i wv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(block.at(full, 0)));
        const __m256i match =
            _mm256_andnot_si256(_mm256_xor_si256(xv, wv), mask);
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(popcountBytes(match), zero));
    }
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    for (size_t f = 0; f < block.lanes; ++f)
        matches[f] += static_cast<uint32_t>(lanes[f]);
    return block.wordCount();
}

/** Rotate each 64-bit lane left by @p k (0 < k < 64). */
__attribute__((target("avx2"), always_inline)) static inline __m256i
rotl64(__m256i x, int k)
{
    return _mm256_or_si256(_mm256_slli_epi64(x, k),
                           _mm256_srli_epi64(x, 64 - k));
}

/** One xoshiro256** step of four generators, state word k of lane f
 *  in s[k]; returns the four draws. Bit-exact with
 *  Xoshiro256ss::next(). */
__attribute__((target("avx2"), always_inline)) static inline __m256i
xoshiroStep4(__m256i s[4])
{
    const __m256i x5 = _mm256_add_epi64(s[1], _mm256_slli_epi64(s[1], 2));
    const __m256i r = rotl64(x5, 7);
    const __m256i result = _mm256_add_epi64(r, _mm256_slli_epi64(r, 3));
    const __m256i t = _mm256_slli_epi64(s[1], 17);
    s[2] = _mm256_xor_si256(s[2], s[0]);
    s[3] = _mm256_xor_si256(s[3], s[1]);
    s[1] = _mm256_xor_si256(s[1], s[2]);
    s[0] = _mm256_xor_si256(s[0], s[3]);
    s[2] = _mm256_xor_si256(s[2], t);
    s[3] = rotl64(s[3], 45);
    return result;
}

/** @p draws draws of the four generators packed as in the scalar
 *  sngWord: lane f's draw d nibble at bits [4d, 4d + 4). */
__attribute__((target("avx2"), always_inline)) static inline __m256i
sngWord4(__m256i s[4], __m256i thr, size_t draws)
{
    const __m256i lo16 = _mm256_set1_epi32(0xFFFF);
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i two = _mm256_set1_epi32(2);
    const __m256i nib = _mm256_set1_epi64x(0xF);
    __m256i acc = _mm256_setzero_si256();
    for (size_t d = 0; d < draws; ++d) {
        const __m256i r = xoshiroStep4(s);
        // 32-bit element 2j (2j + 1) of a 64-bit lane holds 16-bit
        // lanes 0, 1 (2, 3): bit 0 of each element is its low lane's
        // compare, bit 1 its high lane's.
        const __m256i lo = _mm256_cmpgt_epi32(thr, _mm256_and_si256(r, lo16));
        const __m256i hi = _mm256_cmpgt_epi32(thr, _mm256_srli_epi32(r, 16));
        const __m256i v = _mm256_or_si256(_mm256_and_si256(lo, one),
                                          _mm256_and_si256(hi, two));
        const __m256i bits = _mm256_and_si256(
            _mm256_or_si256(v, _mm256_srli_epi64(v, 30)), nib);
        // Shift earlier nibbles down so draw d ends at bits 4d.
        acc = _mm256_or_si256(_mm256_srli_epi64(acc, 4),
                              _mm256_slli_epi64(bits, 60));
    }
    return _mm256_srl_epi64(acc, _mm_cvtsi64_si128(
                                     static_cast<long long>(64 - 4 * draws)));
}

__attribute__((target("avx2"))) static void
avx2SngUnipolar4Impl(const uint32_t *thresholds, Xoshiro256ss *rngs,
                     size_t length, uint64_t *const *outs)
{
    __m256i s[4];
    for (int k = 0; k < 4; ++k)
        s[k] = _mm256_set_epi64x(static_cast<long long>(rngs[3].state()[k]),
                                 static_cast<long long>(rngs[2].state()[k]),
                                 static_cast<long long>(rngs[1].state()[k]),
                                 static_cast<long long>(rngs[0].state()[k]));
    const __m256i thr = _mm256_set_epi32(
        static_cast<int>(thresholds[3]), static_cast<int>(thresholds[3]),
        static_cast<int>(thresholds[2]), static_cast<int>(thresholds[2]),
        static_cast<int>(thresholds[1]), static_cast<int>(thresholds[1]),
        static_cast<int>(thresholds[0]), static_cast<int>(thresholds[0]));
    alignas(32) uint64_t lanes[4];
    const size_t full = length / 64;
    for (size_t w = 0; w < full; ++w) {
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes),
                           sngWord4(s, thr, 16));
        for (size_t f = 0; f < 4; ++f)
            outs[f][w] = lanes[f];
    }
    if (const size_t tail = length % 64) {
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes),
                           sngWord4(s, thr, (tail + 3) / 4));
        const uint64_t mask = (uint64_t{1} << tail) - 1;
        for (size_t f = 0; f < 4; ++f)
            outs[f][full] = lanes[f] & mask;
    }
    alignas(32) uint64_t st[4][4];
    for (int k = 0; k < 4; ++k)
        _mm256_store_si256(reinterpret_cast<__m256i *>(st[k]), s[k]);
    for (size_t f = 0; f < 4; ++f)
        for (int k = 0; k < 4; ++k)
            rngs[f].state()[k] = st[k][f];
}

bool
avx2SngUnipolar4(const uint32_t *thresholds, Xoshiro256ss *rngs,
                 size_t length, uint64_t *const *outs)
{
    if (!enabled())
        return false;
    avx2SngUnipolar4Impl(thresholds, rngs, length, outs);
    return true;
}

#else // !SCDCNN_SIMD_X86

size_t
avx2ProductFold(const ProductFold &)
{
    return 0;
}

void
avx2SpreadPlanesWord(const uint64_t *pw, size_t n_planes, bool parity,
                     uint16_t *out)
{
    spreadWordScalar(pw, n_planes, parity, out);
}

void
avx2PlaneGroupSums(const uint64_t *const *bufs, size_t n_pixels,
                   size_t n_inputs, size_t pstride, size_t n_words,
                   size_t n_planes, bool parity, uint16_t *sums)
{
    planeGroupSumsScalar(bufs, n_pixels, n_inputs, pstride, n_words,
                         n_planes, parity, sums);
}

void
avx2SpreadWinnerPlanes(const uint64_t *const *bufs, size_t n_pixels,
                       size_t n_inputs, size_t pstride, size_t n_words,
                       size_t n_planes, bool parity, const uint8_t *winners,
                       uint16_t *const *outs)
{
    spreadWinnerPlanesScalar(bufs, n_pixels, n_inputs, pstride, n_words,
                             n_planes, parity, winners, outs);
}

uint64_t
avx2SumU16(const uint16_t *values, size_t n)
{
    uint64_t sum = 0;
    for (size_t i = 0; i < n; ++i)
        sum += values[i];
    return sum;
}

size_t
avx2BtanhWordsBatch(const uint16_t *const *, size_t, uint64_t *const *,
                    uint16_t *const *, size_t, unsigned, unsigned)
{
    return 0;
}

size_t
avx2XnorPopcountMulti(const uint64_t *, const WeightBlockView &,
                      uint32_t *)
{
    return 0;
}

bool
avx2SngUnipolar4(const uint32_t *, Xoshiro256ss *, size_t,
                 uint64_t *const *)
{
    return false;
}

#endif // SCDCNN_SIMD_X86

} // namespace simd
} // namespace sc
} // namespace scdcnn
