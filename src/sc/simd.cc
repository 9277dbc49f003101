#include "sc/simd.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "common/logging.h"
#include "sc/counter.h"
#include "sc/fused.h"
#include "sc/popcount.h"

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


/** The best level the CPU runs: AVX-512 needs the F, VL and BW subsets
 *  (BW for the tile kernels' 16-bit lanes), and AVX2, which every
 *  AVX-512 part has, for the shared bodies. */
Level
hostLevel()
{
#if SCDCNN_SIMD_X86
    if (!__builtin_cpu_supports("avx2"))
        return Level::Scalar;
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512bw"))
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

void
checkTile(const PlaneTile &t, size_t n_pixels)
{
    SCDCNN_ASSERT(t.n_inputs >= 1 && t.n_inputs <= 4,
                  "%zu tile inputs, 1 to 4", t.n_inputs);
    SCDCNN_ASSERT(t.pixel_stride % 16 == 0 && n_pixels <= t.pixel_stride,
                  "%zu pixels in a tile of stride %zu", n_pixels,
                  t.pixel_stride);
    SCDCNN_ASSERT(t.plane_cap >= 1 && t.plane_cap <= 15,
                  "%zu count planes, 1 to 15", t.plane_cap);
}

/** The chunks the tile kernels' vector bodies cover: 32-pixel chunks
 *  over [0, wide_end) at Avx512, 16-pixel chunks over [wide_end, end). */
struct TileChunks
{
    size_t wide_end, end;
};

TileChunks
tileChunks(Level lv, size_t n_pixels)
{
    const size_t end = (n_pixels + 15) / 16 * 16;
    return {lv == Level::Avx512 ? end / 32 * 32 : 0, end};
}

/** Scalar twin of the tileGroupSums bodies. */
void
tileGroupSumsScalar(const PlaneTile &t, size_t n_pixels, uint16_t *sums)
{
    const size_t S = t.pixel_stride;
    for (size_t q = 0; q < t.n_words; ++q)
        for (size_t g = 0; g < 4; ++g)
            for (size_t k = 0; k < 4; ++k)
                for (size_t px = 0; px < n_pixels; ++px) {
                    uint32_t sum = 0;
                    for (size_t p = 0; k < t.n_inputs && p < t.plane_cap;
                         ++p)
                        sum += popcountSwar(
                                   (t.row(k, q, t.digitRow(p))[px] >>
                                    (16 * g)) &
                                   0xFFFF)
                               << p;
                    sums[((q * 4 + g) * 4 + k) * S + px] =
                        static_cast<uint16_t>(sum);
                }
}

/** Scalar twin of the tileSelectorWalk bodies, exact for any carried
 *  counter value. */
void
tileSelectorWalkScalar(const uint16_t *sums, const uint8_t *steps,
                       size_t n_groups, size_t S, size_t n_pixels,
                       uint64_t *counters, uint32_t *selected,
                       uint8_t *winners)
{
    const size_t n_words = (n_groups + 3) / 4;
    for (size_t px = 0; px < n_pixels; ++px) {
        uint64_t c[4];
        for (size_t k = 0; k < 4; ++k)
            c[k] = counters[k * S + px];
        uint32_t sel = selected[px];
        for (size_t ga = 0; ga < n_words * 4; ++ga) {
            winners[((ga / 4) * S + px) * 4 + ga % 4] =
                static_cast<uint8_t>(sel);
            if (ga >= n_groups)
                continue;
            for (size_t k = 0; k < 4; ++k)
                c[k] += sums[(ga * 4 + k) * S + px];
            if (steps[ga] & 1) {
                uint32_t best = 0;
                for (uint32_t k = 1; k < 4; ++k)
                    if (c[k] > c[best])
                        best = k;
                sel = best;
            }
            if (steps[ga] & 2)
                std::fill(c, c + 4, uint64_t{0});
        }
        for (size_t k = 0; k < 4; ++k)
            counters[k * S + px] = c[k];
        selected[px] = sel;
    }
}

/** Scalar twin of the tileBtanh bodies, for any (k, n_inputs). */
void
tileBtanhScalar(const PlaneTile &t, const uint8_t *winners,
                size_t n_pixels, size_t n_cycles, unsigned k,
                unsigned n_inputs, uint16_t *states, uint64_t *outs)
{
    const size_t S = t.pixel_stride;
    const int top = static_cast<int>(k) - 1;
    const int half = static_cast<int>(k / 2);
    const int n = static_cast<int>(n_inputs);
    for (size_t px = 0; px < n_pixels; ++px) {
        int st = states[px];
        for (size_t q = 0; q * 64 < n_cycles; ++q) {
            // The winners' group fields muxed into one word per digit.
            uint64_t fwd[16] = {};
            for (size_t g = 0; g < 4; ++g) {
                const size_t in = winners[(q * S + px) * 4 + g];
                for (size_t p = 0; p < t.plane_cap; ++p)
                    fwd[p] |= t.row(in, q, t.digitRow(p))[px] &
                              (uint64_t{0xFFFF} << (16 * g));
            }
            uint64_t word = 0;
            for (size_t b = 0; b < 64 && q * 64 + b < n_cycles; ++b) {
                int c = 0;
                for (size_t p = 0; p < t.plane_cap; ++p)
                    c |= static_cast<int>((fwd[p] >> b) & 1) << p;
                st = std::clamp(st + 2 * c - n, 0, top);
                word |= static_cast<uint64_t>(st >= half) << b;
            }
            outs[q * S + px] = word;
        }
        states[px] = static_cast<uint16_t>(st);
    }
}

/** Scalar twin of the tileCounts body. */
void
tileCountsScalar(const PlaneTile &t, size_t k, size_t px, uint16_t *counts)
{
    for (size_t q = 0; q < t.n_words; ++q)
        for (size_t b = 0; b < 64; ++b) {
            uint16_t c = 0;
            for (size_t p = 0; p < t.plane_cap; ++p)
                c |= static_cast<uint16_t>(
                    ((t.row(k, q, t.digitRow(p))[px] >> b) & 1) << p);
            counts[q * 64 + b] = c;
        }
}

/** Scalar twin of the tileCountSums body. */
void
tileCountSumsScalar(const PlaneTile &t, size_t n_pixels, uint64_t *sums)
{
    for (size_t px = 0; px < n_pixels; ++px) {
        uint64_t sum = 0;
        for (size_t q = 0; q < t.n_words; ++q)
            for (size_t p = 0; p < t.plane_cap; ++p)
                sum += static_cast<uint64_t>(
                           popcountSwar(t.row(0, q, t.digitRow(p))[px]))
                       << p;
        sums[px] = sum;
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

} // namespace

// --- the product fold and the tile kernels --------------------------------
//
// One Harley-Seal schedule (sc/simd_fold.inc) and one set of tile kernels
// (sc/simd_tile.inc) compiled at two widths, each in its own target
// region so the AVX2 bodies never carry an AVX-512 instruction.

static_assert(ApproxParallelCounter::kLsbParityLines == 4,
              "the fold reads the parity after its first four lines");

#pragma GCC push_options
#pragma GCC target("avx2")

namespace {
namespace w256 {

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

    [[gnu::always_inline]] static inline void store(uint64_t *p, R v)
    {
        _mm256_store_si256(reinterpret_cast<R *>(p), v);
    }

    [[gnu::always_inline]] static inline void storeRow(R v, uint64_t *p0,
                                                       uint64_t *)
    {
        _mm256_storeu_si256(reinterpret_cast<R *>(p0), v);
    }
};

#include "sc/simd_fold.inc"

/** Tile ops on 16-pixel chunks: 16-bit lanes, vector masks. */
struct T
{
    using R = __m256i;
    using M = __m256i;
    using M32 = __m256i;
    static constexpr size_t kChunk = 16;

    [[gnu::always_inline]] static inline R load(const void *p)
    {
        return _mm256_loadu_si256(static_cast<const R *>(p));
    }
    [[gnu::always_inline]] static inline void store(void *p, R v)
    {
        _mm256_storeu_si256(static_cast<R *>(p), v);
    }
    [[gnu::always_inline]] static inline R zero()
    {
        return _mm256_setzero_si256();
    }
    [[gnu::always_inline]] static inline R set16(int v)
    {
        return _mm256_set1_epi16(static_cast<short>(v));
    }
    [[gnu::always_inline]] static inline R set32(int v)
    {
        return _mm256_set1_epi32(v);
    }
    [[gnu::always_inline]] static inline R andR(R a, R b)
    {
        return _mm256_and_si256(a, b);
    }
    [[gnu::always_inline]] static inline R orR(R a, R b)
    {
        return _mm256_or_si256(a, b);
    }
    [[gnu::always_inline]] static inline R xorR(R a, R b)
    {
        return _mm256_xor_si256(a, b);
    }
    [[gnu::always_inline]] static inline R add8(R a, R b)
    {
        return _mm256_add_epi8(a, b);
    }
    [[gnu::always_inline]] static inline R add16(R a, R b)
    {
        return _mm256_add_epi16(a, b);
    }
    [[gnu::always_inline]] static inline R add32(R a, R b)
    {
        return _mm256_add_epi32(a, b);
    }
    template <int N> [[gnu::always_inline]] static inline R slli16(R a)
    {
        return _mm256_slli_epi16(a, N);
    }
    template <int N> [[gnu::always_inline]] static inline R srli16(R a)
    {
        return _mm256_srli_epi16(a, N);
    }
    template <int N> [[gnu::always_inline]] static inline R slli32(R a)
    {
        return _mm256_slli_epi32(a, N);
    }
    [[gnu::always_inline]] static inline R shl16(R a, size_t n)
    {
        return _mm256_sll_epi16(a,
                                _mm_cvtsi64_si128(static_cast<long long>(n)));
    }
    [[gnu::always_inline]] static inline R shr16(R a, size_t n)
    {
        return _mm256_srl_epi16(a,
                                _mm_cvtsi64_si128(static_cast<long long>(n)));
    }
    [[gnu::always_inline]] static inline R sub16(R a, R b)
    {
        return _mm256_sub_epi16(a, b);
    }
    [[gnu::always_inline]] static inline R adds16s(R a, R b)
    {
        return _mm256_adds_epi16(a, b);
    }
    [[gnu::always_inline]] static inline R min16s(R a, R b)
    {
        return _mm256_min_epi16(a, b);
    }
    [[gnu::always_inline]] static inline R popcount8(R v)
    {
        return popcountBytes(v);
    }
    [[gnu::always_inline]] static inline R sumPairs8(R v)
    {
        return _mm256_maddubs_epi16(v, _mm256_set1_epi8(1));
    }
    [[gnu::always_inline]] static inline R widen32(R a, size_t h)
    {
        return _mm256_cvtepu16_epi32(h == 0 ? _mm256_castsi256_si128(a)
                                            : _mm256_extracti128_si256(a, 1));
    }
    [[gnu::always_inline]] static inline R loadWinners(const uint8_t *p)
    {
        return _mm256_cvtepu8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
    }
    [[gnu::always_inline]] static inline M eq16(R a, R b)
    {
        return _mm256_cmpeq_epi16(a, b);
    }
    [[gnu::always_inline]] static inline M gt16(R a, R b)
    {
        return _mm256_cmpgt_epi16(a, b);
    }
    [[gnu::always_inline]] static inline M32 gt32(R a, R b)
    {
        return _mm256_cmpgt_epi32(a, b);
    }
    [[gnu::always_inline]] static inline R max32(R a, R b)
    {
        return _mm256_max_epi32(a, b);
    }
    [[gnu::always_inline]] static inline R select(M m, R a, R b)
    {
        return _mm256_blendv_epi8(a, b, m);
    }
    [[gnu::always_inline]] static inline R select32(M32 m, R a, R b)
    {
        return _mm256_blendv_epi8(a, b, m);
    }
    [[gnu::always_inline]] static inline R orWhere(R acc, M m, R bit)
    {
        return _mm256_or_si256(acc, _mm256_and_si256(m, bit));
    }

    /** 4 x 4 transpose of 64-bit units: out[u] unit i = in[i] unit u. */
    [[gnu::always_inline]] static inline void transpose64(const R in[4],
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

    /** Per register, fields paired by group within each 128-bit lane
     *  (one byte shuffle) and the lanes' pairs joined into one 64-bit
     *  unit per group (one dword permute); then a 64-bit transpose. */
    [[gnu::always_inline]] static inline void toGroups(const R in[4],
                                                       R out[4])
    {
        const R pair = _mm256_setr_epi8(
            0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15, 0, 1, 8,
            9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15);
        const R join = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        R t[4];
        for (size_t i = 0; i < 4; ++i)
            t[i] = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(in[i], pair),
                                               join);
        transpose64(t, out);
    }

    [[gnu::always_inline]] static inline void fromGroups(const R in[4],
                                                         R out[4])
    {
        const R unpair = _mm256_setr_epi8(
            0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15, 0, 1, 4, 5,
            8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15);
        const R split = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
        R t[4];
        transpose64(in, t);
        for (size_t i = 0; i < 4; ++i)
            out[i] = _mm256_shuffle_epi8(
                _mm256_permutevar8x32_epi32(t[i], split), unpair);
    }
};

#include "sc/simd_tile.inc"

} // namespace w256
} // namespace

#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2,avx512f,avx512vl,avx512bw")

namespace {
namespace w512 {

/** Two stream words per register: lanes 0-3 hold word w of the four
 *  filters, lanes 4-7 word w + 1; ternary-logic full adders. Shuffles,
 *  extracts and the other ops whose GCC 12 header bodies read an
 *  "undefined" register (which -Wmaybe-uninitialized flags) use their
 *  all-lanes maskz forms. */
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

    [[gnu::always_inline]] static inline void store(uint64_t *p, R v)
    {
        _mm512_store_si512(p, v);
    }

    /** Two lane-masked stores, word w + 1's half addressed from p1 - 4
     *  so that its lanes 4-7 land at p1. */
    [[gnu::always_inline]] static inline void storeRow(R v, uint64_t *p0,
                                                       uint64_t *p1)
    {
        _mm512_mask_storeu_epi64(p0, 0x0F, v);
        _mm512_mask_storeu_epi64(p1 - 4, 0xF0, v);
    }
};

#include "sc/simd_fold.inc"

/** Tile ops on 32-pixel chunks: 16-bit lanes, AVX512BW lane masks. */
struct T
{
    using R = __m512i;
    using M = __mmask32;
    using M32 = __mmask16;
    static constexpr size_t kChunk = 32;

    [[gnu::always_inline]] static inline R load(const void *p)
    {
        return _mm512_loadu_si512(p);
    }
    [[gnu::always_inline]] static inline void store(void *p, R v)
    {
        _mm512_storeu_si512(p, v);
    }
    [[gnu::always_inline]] static inline R zero()
    {
        return _mm512_setzero_si512();
    }
    [[gnu::always_inline]] static inline R set16(int v)
    {
        return _mm512_set1_epi16(static_cast<short>(v));
    }
    [[gnu::always_inline]] static inline R set32(int v)
    {
        return _mm512_set1_epi32(v);
    }
    [[gnu::always_inline]] static inline R andR(R a, R b)
    {
        return _mm512_and_si512(a, b);
    }
    [[gnu::always_inline]] static inline R orR(R a, R b)
    {
        return _mm512_or_si512(a, b);
    }
    [[gnu::always_inline]] static inline R xorR(R a, R b)
    {
        return _mm512_xor_si512(a, b);
    }
    [[gnu::always_inline]] static inline R add8(R a, R b)
    {
        return _mm512_add_epi8(a, b);
    }
    [[gnu::always_inline]] static inline R add16(R a, R b)
    {
        return _mm512_add_epi16(a, b);
    }
    [[gnu::always_inline]] static inline R add32(R a, R b)
    {
        return _mm512_add_epi32(a, b);
    }
    template <int N> [[gnu::always_inline]] static inline R slli16(R a)
    {
        return _mm512_slli_epi16(a, N);
    }
    template <int N> [[gnu::always_inline]] static inline R srli16(R a)
    {
        return _mm512_srli_epi16(a, N);
    }
    template <int N> [[gnu::always_inline]] static inline R slli32(R a)
    {
        return _mm512_maskz_slli_epi32(0xFFFF, a, N);
    }
    [[gnu::always_inline]] static inline R shl16(R a, size_t n)
    {
        return _mm512_sll_epi16(a,
                                _mm_cvtsi64_si128(static_cast<long long>(n)));
    }
    [[gnu::always_inline]] static inline R shr16(R a, size_t n)
    {
        return _mm512_srl_epi16(a,
                                _mm_cvtsi64_si128(static_cast<long long>(n)));
    }
    [[gnu::always_inline]] static inline R sub16(R a, R b)
    {
        return _mm512_sub_epi16(a, b);
    }
    [[gnu::always_inline]] static inline R adds16s(R a, R b)
    {
        return _mm512_adds_epi16(a, b);
    }
    [[gnu::always_inline]] static inline R min16s(R a, R b)
    {
        return _mm512_min_epi16(a, b);
    }
    /** Per-byte popcount: nibble lookup, no BITALG. */
    [[gnu::always_inline]] static inline R popcount8(R v)
    {
        const R lut = _mm512_set4_epi32(0x04030302, 0x03020201, 0x03020201,
                                        0x02010100);
        const R nibble = _mm512_set1_epi8(0x0F);
        return _mm512_add_epi8(
            _mm512_shuffle_epi8(lut, _mm512_and_si512(v, nibble)),
            _mm512_shuffle_epi8(
                lut, _mm512_and_si512(_mm512_srli_epi16(v, 4), nibble)));
    }
    [[gnu::always_inline]] static inline R sumPairs8(R v)
    {
        return _mm512_maddubs_epi16(v, _mm512_set1_epi8(1));
    }
    [[gnu::always_inline]] static inline R widen32(R a, size_t h)
    {
        return _mm512_maskz_cvtepu16_epi32(
            0xFFFF, h == 0 ? _mm512_maskz_extracti64x4_epi64(0xFF, a, 0)
                           : _mm512_maskz_extracti64x4_epi64(0xFF, a, 1));
    }
    [[gnu::always_inline]] static inline R loadWinners(const uint8_t *p)
    {
        return _mm512_cvtepu8_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p)));
    }
    [[gnu::always_inline]] static inline M eq16(R a, R b)
    {
        return _mm512_cmpeq_epi16_mask(a, b);
    }
    [[gnu::always_inline]] static inline M gt16(R a, R b)
    {
        return _mm512_cmpgt_epi16_mask(a, b);
    }
    [[gnu::always_inline]] static inline M32 gt32(R a, R b)
    {
        return _mm512_cmpgt_epi32_mask(a, b);
    }
    [[gnu::always_inline]] static inline R max32(R a, R b)
    {
        return _mm512_maskz_max_epi32(0xFFFF, a, b);
    }
    [[gnu::always_inline]] static inline R select(M m, R a, R b)
    {
        return _mm512_mask_blend_epi16(m, a, b);
    }
    [[gnu::always_inline]] static inline R select32(M32 m, R a, R b)
    {
        return _mm512_mask_blend_epi32(m, a, b);
    }
    [[gnu::always_inline]] static inline R orWhere(R acc, M m, R bit)
    {
        return _mm512_mask_add_epi16(acc, m, acc, bit);
    }

    /** The 16-bit field index tables of the regrouping permutes:
     *  [g0 | g1] and [g2 | g3] of pixels 0-15 out of two row registers,
     *  and back (pixels 0-7; + 8 for pixels 8-15). */
    static constexpr std::array<uint16_t, 32> fieldIndex(int first)
    {
        std::array<uint16_t, 32> a{};
        for (int e = 0; e < 32; ++e) {
            const int g = first + e / 16, pix = e % 16;
            a[e] = static_cast<uint16_t>((pix / 8) * 32 + (pix % 8) * 4 + g);
        }
        return a;
    }
    static constexpr std::array<uint16_t, 32> pixelIndex(int first)
    {
        std::array<uint16_t, 32> a{};
        for (int e = 0; e < 32; ++e) {
            const int m = first + e / 4, g = e % 4;
            a[e] = static_cast<uint16_t>((g / 2) * 32 + (g % 2) * 16 + m);
        }
        return a;
    }

    /** Two-source 16-bit permutes gather two groups of 16 pixels per
     *  register pair; 128-bit lane shuffles join the pixel halves. */
    [[gnu::always_inline]] static inline void toGroups(const R in[4],
                                                       R out[4])
    {
        static constexpr auto kLo = fieldIndex(0), kHi = fieldIndex(2);
        const R lo = load(kLo.data()), hi = load(kHi.data());
        const R a01 = _mm512_permutex2var_epi16(in[0], lo, in[1]);
        const R b01 = _mm512_permutex2var_epi16(in[0], hi, in[1]);
        const R a23 = _mm512_permutex2var_epi16(in[2], lo, in[3]);
        const R b23 = _mm512_permutex2var_epi16(in[2], hi, in[3]);
        out[0] = _mm512_maskz_shuffle_i64x2(0xFF, a01, a23, 0x44);
        out[1] = _mm512_maskz_shuffle_i64x2(0xFF, a01, a23, 0xEE);
        out[2] = _mm512_maskz_shuffle_i64x2(0xFF, b01, b23, 0x44);
        out[3] = _mm512_maskz_shuffle_i64x2(0xFF, b01, b23, 0xEE);
    }

    [[gnu::always_inline]] static inline void fromGroups(const R in[4],
                                                         R out[4])
    {
        static constexpr auto kFirst = pixelIndex(0), kSecond = pixelIndex(8);
        const R first = load(kFirst.data()), second = load(kSecond.data());
        const R a01 = _mm512_maskz_shuffle_i64x2(0xFF, in[0], in[1], 0x44);
        const R a23 = _mm512_maskz_shuffle_i64x2(0xFF, in[0], in[1], 0xEE);
        const R b01 = _mm512_maskz_shuffle_i64x2(0xFF, in[2], in[3], 0x44);
        const R b23 = _mm512_maskz_shuffle_i64x2(0xFF, in[2], in[3], 0xEE);
        out[0] = _mm512_permutex2var_epi16(a01, first, b01);
        out[1] = _mm512_permutex2var_epi16(a01, second, b01);
        out[2] = _mm512_permutex2var_epi16(a23, first, b23);
        out[3] = _mm512_permutex2var_epi16(a23, second, b23);
    }
};

#include "sc/simd_tile.inc"

} // namespace w512
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
        w = w512::foldRange(fold, w, full_end);
    if (w < full_end)
        w = w256::foldRange(fold, w, full_end);
    return w - fold.begin_word;
}

void
tileGroupSums(const PlaneTile &tile, size_t n_pixels, uint16_t *sums)
{
    checkTile(tile, n_pixels);
    SCDCNN_ASSERT(tile.plane_cap <= 12,
                  "plane count %zu outside the uint16 group-sum range",
                  tile.plane_cap);
    const Level lv = level();
    if (lv == Level::Scalar) {
        tileGroupSumsScalar(tile, n_pixels, sums);
        return;
    }
    const TileChunks ch = tileChunks(lv, n_pixels);
    w512::tile::groupSums(tile, 0, ch.wide_end, sums);
    w256::tile::groupSums(tile, ch.wide_end, ch.end, sums);
}

void
tileSelectorWalk(const uint16_t *sums, const uint8_t *steps,
                 size_t n_groups, size_t plane_cap, size_t pixel_stride,
                 size_t n_pixels, uint64_t *counters, uint32_t *selected,
                 uint8_t *winners)
{
    const Level lv = level();
    // The range check of the 32-bit lanes: a group adds below
    // 16 << plane_cap to a counter.
    uint64_t top = 0;
    for (size_t k = 0; k < 4; ++k)
        for (size_t px = 0; px < n_pixels; ++px)
            top = std::max(top, counters[k * pixel_stride + px]);
    if (lv == Level::Scalar ||
        top + n_groups * (uint64_t{16} << plane_cap) >= uint64_t{1} << 31) {
        tileSelectorWalkScalar(sums, steps, n_groups, pixel_stride,
                               n_pixels, counters, selected, winners);
        return;
    }
    const TileChunks ch = tileChunks(lv, n_pixels);
    thread_local std::vector<uint32_t> narrow;
    narrow.resize(4 * pixel_stride);
    for (size_t k = 0; k < 4; ++k)
        for (size_t px = 0; px < ch.end; ++px)
            narrow[k * pixel_stride + px] =
                static_cast<uint32_t>(counters[k * pixel_stride + px]);
    w512::tile::selectorWalk(sums, steps, n_groups, pixel_stride, 0,
                             ch.wide_end, narrow.data(), selected, winners);
    w256::tile::selectorWalk(sums, steps, n_groups, pixel_stride,
                             ch.wide_end, ch.end, narrow.data(), selected,
                             winners);
    for (size_t k = 0; k < 4; ++k)
        for (size_t px = 0; px < ch.end; ++px)
            counters[k * pixel_stride + px] = narrow[k * pixel_stride + px];
}

void
tileBtanh(const PlaneTile &tile, const uint8_t *winners, size_t n_pixels,
          size_t n_cycles, unsigned k, unsigned n_inputs, uint16_t *states,
          uint64_t *outs)
{
    checkTile(tile, n_pixels);
    SCDCNN_ASSERT(k >= 2, "Btanh needs at least 2 states, got %u", k);
    const Level lv = level();
    if (lv == Level::Scalar || k > 8192 || n_inputs > 4096) {
        tileBtanhScalar(tile, winners, n_pixels, n_cycles, k, n_inputs,
                        states, outs);
        return;
    }
    const TileChunks ch = tileChunks(lv, n_pixels);
    w512::tile::btanh(tile, winners, n_cycles, k, n_inputs, 0, ch.wide_end,
                      states, outs);
    w256::tile::btanh(tile, winners, n_cycles, k, n_inputs, ch.wide_end,
                      ch.end, states, outs);
}

__attribute__((target("avx2"))) static void
tileCountsAvx2(const PlaneTile &t, size_t k, size_t px, uint16_t *counts)
{
    for (size_t q = 0; q < t.n_words; ++q)
        spreadWord([&](size_t j) { return t.row(k, q, j) + px; },
                   t.plane_cap, t.parity, counts + q * 64);
}

void
tileCounts(const PlaneTile &tile, size_t k, size_t px, uint16_t *counts)
{
    if (enabled())
        tileCountsAvx2(tile, k, px, counts);
    else
        tileCountsScalar(tile, k, px, counts);
}

__attribute__((target("avx2"))) static void
tileCountSumsAvx2(const PlaneTile &t, size_t n_pixels, uint64_t *sums)
{
    const __m256i zero = _mm256_setzero_si256();
    for (size_t px0 = 0; px0 < n_pixels; px0 += 4) {
        // Four pixels' words per register; the stride keeps the last
        // group of four inside the rows.
        __m256i acc = zero;
        for (size_t q = 0; q < t.n_words; ++q)
            for (size_t p = 0; p < t.plane_cap; ++p) {
                const __m256i v = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(
                        t.row(0, q, t.digitRow(p)) + px0));
                acc = _mm256_add_epi64(
                    acc, _mm256_sll_epi64(
                             _mm256_sad_epu8(popcountBytes(v), zero),
                             _mm_cvtsi64_si128(static_cast<long long>(p))));
            }
        alignas(32) uint64_t lanes[4];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
        for (size_t i = 0; i < 4 && px0 + i < n_pixels; ++i)
            sums[px0 + i] = lanes[i];
    }
}

void
tileCountSums(const PlaneTile &tile, size_t n_pixels, uint64_t *sums)
{
    checkTile(tile, n_pixels);
    if (enabled())
        tileCountSumsAvx2(tile, n_pixels, sums);
    else
        tileCountSumsScalar(tile, n_pixels, sums);
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
tileGroupSums(const PlaneTile &tile, size_t n_pixels, uint16_t *sums)
{
    checkTile(tile, n_pixels);
    tileGroupSumsScalar(tile, n_pixels, sums);
}

void
tileSelectorWalk(const uint16_t *sums, const uint8_t *steps,
                 size_t n_groups, size_t, size_t pixel_stride,
                 size_t n_pixels, uint64_t *counters, uint32_t *selected,
                 uint8_t *winners)
{
    tileSelectorWalkScalar(sums, steps, n_groups, pixel_stride, n_pixels,
                           counters, selected, winners);
}

void
tileBtanh(const PlaneTile &tile, const uint8_t *winners, size_t n_pixels,
          size_t n_cycles, unsigned k, unsigned n_inputs, uint16_t *states,
          uint64_t *outs)
{
    checkTile(tile, n_pixels);
    tileBtanhScalar(tile, winners, n_pixels, n_cycles, k, n_inputs, states,
                    outs);
}

void
tileCounts(const PlaneTile &tile, size_t k, size_t px, uint16_t *counts)
{
    tileCountsScalar(tile, k, px, counts);
}

void
tileCountSums(const PlaneTile &tile, size_t n_pixels, uint64_t *sums)
{
    checkTile(tile, n_pixels);
    tileCountSumsScalar(tile, n_pixels, sums);
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
