#include "sc/simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "sc/counter.h"
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

/** -1 = not yet decided, else the selected Level. */
std::atomic<int> g_level{-1};

/** SCDCNN_FORCE_SCALAR forces the scalar path when set to anything
 *  but empty or "0" (so FORCE_SCALAR=0 keeps SIMD selected). */
bool
forcedScalar()
{
    const char *v = std::getenv("SCDCNN_FORCE_SCALAR");
    return v != nullptr && *v != '\0' && !(v[0] == '0' && v[1] == '\0');
}

/** The best level the CPU runs: AVX-512 needs the F and VL subsets
 *  (and AVX2, which every AVX-512 part has, for the shared bodies). */
Level
hostLevel()
{
#if SCDCNN_SIMD_X86
    if (!__builtin_cpu_supports("avx2"))
        return Level::Scalar;
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl"))
        return Level::Avx512;
    return Level::Avx2;
#else
    return Level::Scalar;
#endif
}

} // namespace

Level
supportedLevel()
{
    return forcedScalar() ? Level::Scalar : hostLevel();
}

Level
level()
{
    int state = g_level.load(std::memory_order_relaxed);
    if (state < 0) {
        state = static_cast<int>(supportedLevel());
        g_level.store(state, std::memory_order_relaxed);
    }
    return static_cast<Level>(state);
}

void
setLevel(Level lv)
{
    g_level.store(std::min(static_cast<int>(lv),
                           static_cast<int>(supportedLevel())),
                  std::memory_order_relaxed);
}

bool
enabled()
{
    return level() != Level::Scalar;
}

std::vector<Level>
supportedLevels()
{
    std::vector<Level> levels;
    for (int l = 0; l <= static_cast<int>(supportedLevel()); ++l)
        levels.push_back(static_cast<Level>(l));
    return levels;
}

const char *
levelName(Level lv)
{
    switch (lv) {
    case Level::Avx512:
        return "avx512";
    case Level::Avx2:
        return "avx2";
    case Level::Scalar:
        break;
    }
    return "scalar";
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

} // namespace

// --- the product fold -----------------------------------------------------
//
// One Harley-Seal schedule (sc/simd_fold.inc) compiled at two widths,
// each in its own target region so the AVX2 body never carries an
// AVX-512 instruction.

static_assert(ApproxParallelCounter::kLsbParityLines == 4,
              "the fold reads the parity after its first four lines");

#pragma GCC push_options
#pragma GCC target("avx2")

namespace {
namespace fold256 {

/** One stream word per register: lane l = filter l. */
struct V
{
    using R = __m256i;
    static constexpr size_t kWords = 1;

    [[gnu::always_inline]] static inline R zero()
    {
        return _mm256_setzero_si256();
    }

    [[gnu::always_inline]] static inline R
    line(const uint64_t *xp, const uint64_t *wp, size_t)
    {
        const R xv = _mm256_set1_epi64x(static_cast<long long>(*xp));
        const R wv = _mm256_loadu_si256(reinterpret_cast<const R *>(wp));
        return _mm256_xor_si256(_mm256_xor_si256(xv, wv),
                                _mm256_set1_epi8(-1));
    }

    /** Five-op full adder. */
    [[gnu::always_inline]] static inline void csa(R &h, R &l, R a, R b)
    {
        const R u = _mm256_xor_si256(a, b);
        h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, l));
        l = _mm256_xor_si256(u, l);
    }

    [[gnu::always_inline]] static inline void halfAdd(R &acc, R &c)
    {
        const R t = _mm256_and_si256(acc, c);
        acc = _mm256_xor_si256(acc, c);
        c = t;
    }

    [[gnu::always_inline]] static inline R load(const uint64_t *p)
    {
        return _mm256_load_si256(reinterpret_cast<const R *>(p));
    }

    [[gnu::always_inline]] static inline void store(uint64_t *p, R v)
    {
        _mm256_store_si256(reinterpret_cast<R *>(p), v);
    }

    [[gnu::always_inline]] static inline void transpose4(const R in[4],
                                                         R out[4])
    {
        const R t0 = _mm256_unpacklo_epi64(in[0], in[1]);
        const R t1 = _mm256_unpackhi_epi64(in[0], in[1]);
        const R t2 = _mm256_unpacklo_epi64(in[2], in[3]);
        const R t3 = _mm256_unpackhi_epi64(in[2], in[3]);
        out[0] = _mm256_permute2x128_si256(t0, t2, 0x20);
        out[1] = _mm256_permute2x128_si256(t1, t3, 0x20);
        out[2] = _mm256_permute2x128_si256(t0, t2, 0x31);
        out[3] = _mm256_permute2x128_si256(t1, t3, 0x31);
    }

    [[gnu::always_inline]] static inline void storeColumn(R c, uint64_t *p,
                                                          size_t)
    {
        _mm256_storeu_si256(reinterpret_cast<R *>(p), c);
    }
};

#include "sc/simd_fold.inc"

} // namespace fold256
} // namespace

#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2,avx512f,avx512vl")

namespace {
namespace fold512 {

/** Two stream words per register: lanes 0-3 hold word w of the four
 *  filters, lanes 4-7 word w + 1; ternary-logic full adders. Shuffles
 *  use their all-lanes maskz forms: GCC 12's unmasked ones read an
 *  "undefined" register that -Wmaybe-uninitialized flags. */
struct V
{
    using R = __m512i;
    static constexpr size_t kWords = 2;

    [[gnu::always_inline]] static inline R zero()
    {
        return _mm512_setzero_si512();
    }

    [[gnu::always_inline]] static inline R
    line(const uint64_t *xp, const uint64_t *wp, size_t wstep)
    {
        const R xv = _mm512_maskz_permutexvar_epi64(
            0xFF, _mm512_set_epi64(1, 1, 1, 1, 0, 0, 0, 0),
            _mm512_castsi128_si512(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(xp))));
        const R wv = _mm512_maskz_inserti64x4(
            0xFF,
            _mm512_castsi256_si512(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(wp))),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(wp + wstep)),
            1);
        return _mm512_ternarylogic_epi64(xv, wv, wv, 0xC3); // ~(x ^ w)
    }

    /** Two-op full adder: majority and three-way XOR. */
    [[gnu::always_inline]] static inline void csa(R &h, R &l, R a, R b)
    {
        h = _mm512_ternarylogic_epi64(a, b, l, 0xE8);
        l = _mm512_ternarylogic_epi64(a, b, l, 0x96);
    }

    [[gnu::always_inline]] static inline void halfAdd(R &acc, R &c)
    {
        const R t = _mm512_and_si512(acc, c);
        acc = _mm512_xor_si512(acc, c);
        c = t;
    }

    [[gnu::always_inline]] static inline R load(const uint64_t *p)
    {
        return _mm512_load_si512(p);
    }

    [[gnu::always_inline]] static inline void store(uint64_t *p, R v)
    {
        _mm512_store_si512(p, v);
    }

    /** The 4 x 4 transpose of each word's half, one two-source
     *  permute per column. */
    [[gnu::always_inline]] static inline void transpose4(const R in[4],
                                                         R out[4])
    {
        const R t0 = _mm512_maskz_unpacklo_epi64(0xFF, in[0], in[1]);
        const R t1 = _mm512_maskz_unpackhi_epi64(0xFF, in[0], in[1]);
        const R t2 = _mm512_maskz_unpacklo_epi64(0xFF, in[2], in[3]);
        const R t3 = _mm512_maskz_unpackhi_epi64(0xFF, in[2], in[3]);
        const R even = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
        const R odd = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
        out[0] = _mm512_permutex2var_epi64(t0, even, t2);
        out[1] = _mm512_permutex2var_epi64(t1, even, t3);
        out[2] = _mm512_permutex2var_epi64(t0, odd, t2);
        out[3] = _mm512_permutex2var_epi64(t1, odd, t3);
    }

    /** Word w's half at p, word w + 1's at p + next_word (>= 4), as
     *  two lane-masked stores. */
    [[gnu::always_inline]] static inline void
    storeColumn(R c, uint64_t *p, size_t next_word)
    {
        _mm512_mask_storeu_epi64(p, 0x0F, c);
        _mm512_mask_storeu_epi64(p + next_word - 4, 0xF0, c);
    }
};

#include "sc/simd_fold.inc"

} // namespace fold512
} // namespace

#pragma GCC pop_options

size_t
vectorProductFold(const ProductFold &fold)
{
    const Level lv = level();
    if (lv == Level::Scalar)
        return 0;
    SCDCNN_ASSERT(fold.parity_lines == 0 ||
                      fold.parity_lines ==
                          std::min(ApproxParallelCounter::kLsbParityLines,
                                   fold.block.taps),
                  "vector fold parity over %zu of %zu lines",
                  fold.parity_lines, fold.block.taps);
    SCDCNN_ASSERT(fold.planes == nullptr ||
                      fold.plane_cap <= kMaxCarrySavePlanes,
                  "plane cap %zu above %d", fold.plane_cap,
                  kMaxCarrySavePlanes);
    // Full words only: the stream's partial tail word (if the range
    // reaches it) stays with the scalar body, so no tail masking is
    // needed here.
    const size_t full_end =
        std::min(fold.end_word, fold.block.length / 64);
    if (full_end <= fold.begin_word)
        return 0;
    size_t w = fold.begin_word;
    if (lv == Level::Avx512)
        w = fold512::foldRange(fold, w, full_end);
    if (w < full_end)
        w = fold256::foldRange(fold, w, full_end);
    return w - fold.begin_word;
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
vectorProductFold(const ProductFold &)
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
