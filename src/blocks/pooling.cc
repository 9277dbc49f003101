#include "blocks/pooling.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

#include "common/logging.h"
#include "sc/ops.h"
#include "sc/simd.h"

namespace scdcnn {
namespace blocks {

sc::Bitstream
averagePooling(const std::vector<sc::Bitstream> &inputs,
               sc::Xoshiro256ss &sel)
{
    SCDCNN_ASSERT(!inputs.empty(), "average pooling with no inputs");
    return sc::muxAdd(inputs, sel);
}

namespace {

void
checkMaxPoolStreams(const std::vector<sc::BitstreamView> &inputs,
                    size_t segment_len, size_t first_choice)
{
    SCDCNN_ASSERT(!inputs.empty(), "max pooling with no inputs");
    SCDCNN_ASSERT(segment_len > 0, "segment length must be positive");
    SCDCNN_ASSERT(first_choice < inputs.size(),
                  "first segment choice %zu out of range", first_choice);
    const size_t len = inputs[0].length;
    for (const auto &s : inputs)
        SCDCNN_ASSERT(s.length == len, "input length mismatch");
}

} // namespace

sc::Bitstream
maxPoolStreamsReference(const std::vector<sc::BitstreamView> &inputs,
                        size_t segment_len, size_t first_choice,
                        bool accumulate)
{
    checkMaxPoolStreams(inputs, segment_len, first_choice);
    const size_t len = inputs[0].length;
    sc::Bitstream out(len);
    std::vector<size_t> counters(inputs.size(), 0);
    size_t selected = first_choice;
    for (size_t seg_begin = 0; seg_begin < len; seg_begin += segment_len) {
        const size_t seg_end = std::min(len, seg_begin + segment_len);
        // Forward the currently selected input's segment, one bit at
        // a time.
        for (size_t i = seg_begin; i < seg_end; ++i)
            if (inputs[selected].get(i))
                out.set(i, true);
        // Count this segment on every input with per-bit counters.
        size_t best = 0;
        size_t best_count = 0;
        for (size_t k = 0; k < inputs.size(); ++k) {
            for (size_t i = seg_begin; i < seg_end; ++i)
                counters[k] += inputs[k].get(i) ? 1 : 0;
            if (counters[k] > best_count) {
                best_count = counters[k];
                best = k;
            }
            if (!accumulate)
                counters[k] = 0;
        }
        selected = best;
    }
    return out;
}

namespace {

/**
 * Shared pooling-segment walk of the ranged Figure 8 selectors: for
 * every pooling segment intersecting [abs_begin, abs_begin + n_cycles)
 * — local sub-range [lo, hi) — forward the currently selected input,
 * add every input's evidence to the carried counters, and decide a new
 * winner only when the range covers the segment's end; a segment
 * straddling the range boundary keeps its partial evidence in the
 * carried counters. The forwarding and evidence metrics are the only
 * things that differ between the stream and binary-count selectors.
 */
template <typename Forward, typename Evidence>
void
rangedSelectorWalk(size_t n_inputs, size_t abs_begin, size_t n_cycles,
                   size_t segment_len, bool accumulate,
                   MaxPoolCarryState &state, Forward &&forward,
                   Evidence &&evidence)
{
    SCDCNN_ASSERT(n_inputs > 0, "max pooling with no inputs");
    SCDCNN_ASSERT(segment_len > 0, "segment length must be positive");
    SCDCNN_ASSERT(state.counters.size() == n_inputs,
                  "pool state holds %zu counters for %zu inputs",
                  state.counters.size(), n_inputs);
    size_t pos = abs_begin;
    const size_t end = abs_begin + n_cycles;
    while (pos < end) {
        const size_t seg_end = (pos / segment_len + 1) * segment_len;
        const size_t chunk_end = std::min(end, seg_end);
        const size_t lo = pos - abs_begin;
        const size_t hi = chunk_end - abs_begin;
        forward(state.selected, lo, hi);
        for (size_t k = 0; k < n_inputs; ++k)
            state.counters[k] += evidence(k, lo, hi);
        if (chunk_end == seg_end) {
            size_t best = 0;
            uint64_t best_count = 0;
            for (size_t k = 0; k < n_inputs; ++k) {
                if (state.counters[k] > best_count) {
                    best_count = state.counters[k];
                    best = k;
                }
                if (!accumulate)
                    state.counters[k] = 0;
            }
            state.selected = best;
        }
        pos = chunk_end;
    }
}

} // namespace

void
maxPoolStreamsRange(const uint64_t *const *inputs, size_t n_inputs,
                    size_t abs_begin, size_t n_cycles, size_t segment_len,
                    bool accumulate, MaxPoolCarryState &state,
                    uint64_t *out)
{
    SCDCNN_ASSERT(abs_begin % 64 == 0,
                  "range begin %zu not word-aligned", abs_begin);
    const size_t n_words = (n_cycles + 63) / 64;
    std::fill(out, out + n_words, uint64_t{0});
    rangedSelectorWalk(
        n_inputs, abs_begin, n_cycles, segment_len, accumulate, state,
        // Forward by word copy with boundary masks (the pooling
        // segment rarely starts or ends on a word boundary).
        [&](size_t selected, size_t lo, size_t hi) {
            const uint64_t *src = inputs[selected];
            const size_t w0 = lo / 64;
            const size_t w1 = (hi - 1) / 64;
            for (size_t w = w0; w <= w1; ++w) {
                uint64_t mask = ~uint64_t{0};
                if (w == w0)
                    mask &= ~uint64_t{0} << (lo % 64);
                if (w == w1) {
                    const size_t t = ((hi - 1) % 64) + 1;
                    if (t < 64)
                        mask &= (uint64_t{1} << t) - 1;
                }
                out[w] |= src[w] & mask;
            }
        },
        // Evidence: masked word popcounts replace the bit counters.
        [&](size_t k, size_t lo, size_t hi) {
            return sc::countOnes(sc::BitstreamView(inputs[k], n_cycles),
                                 lo, hi);
        });
}

sc::Bitstream
HardwareMaxPooling::compute(const std::vector<sc::Bitstream> &inputs,
                            size_t segment_len, size_t first_choice,
                            bool accumulate)
{
    const std::vector<sc::BitstreamView> views = sc::toViews(inputs);
    checkMaxPoolStreams(views, segment_len, first_choice);
    std::vector<const uint64_t *> words(views.size());
    for (size_t k = 0; k < views.size(); ++k)
        words[k] = views[k].words;
    MaxPoolCarryState state;
    state.reset(views.size(), first_choice);
    sc::Bitstream out(views[0].length);
    maxPoolStreamsRange(words.data(), words.size(), 0, views[0].length,
                        segment_len, accumulate, state,
                        out.mutableWords().data());
    return out;
}

size_t
HardwareMaxPooling::argmaxStream(const std::vector<sc::Bitstream> &inputs)
{
    SCDCNN_ASSERT(!inputs.empty(), "argmax of no streams");
    size_t best = 0;
    size_t best_count = inputs[0].countOnes();
    for (size_t k = 1; k < inputs.size(); ++k) {
        size_t c = inputs[k].countOnes();
        if (c > best_count) {
            best_count = c;
            best = k;
        }
    }
    return best;
}

std::vector<uint16_t>
binaryAveragePooling(const std::vector<std::vector<uint16_t>> &counts)
{
    SCDCNN_ASSERT(!counts.empty(), "binary average pooling of nothing");
    const size_t len = counts[0].size();
    const size_t pool = counts.size();
    for (const auto &c : counts)
        SCDCNN_ASSERT(c.size() == len, "count sequence length mismatch");

    std::vector<uint16_t> out(len);
    for (size_t i = 0; i < len; ++i) {
        uint32_t sum = 0;
        for (const auto &c : counts)
            sum += c[i];
        // Truncating integer division: mean(2,3,4,5) -> 3, not 3.5.
        out[i] = static_cast<uint16_t>(sum / pool);
    }
    return out;
}

std::vector<int>
binaryAveragePoolingSigned(const std::vector<std::vector<uint16_t>> &counts,
                           size_t n_inputs)
{
    SCDCNN_ASSERT(!counts.empty(), "binary average pooling of nothing");
    const size_t len = counts[0].size();
    const auto pool = static_cast<int>(counts.size());
    for (const auto &c : counts)
        SCDCNN_ASSERT(c.size() == len, "count sequence length mismatch");

    std::vector<int> out(len);
    for (size_t i = 0; i < len; ++i) {
        int sum = 0;
        for (const auto &c : counts)
            sum += 2 * static_cast<int>(c[i]) - static_cast<int>(n_inputs);
        out[i] = sum / pool; // C++ division truncates toward zero
    }
    return out;
}

void
binaryAveragePoolingSignedRange(const uint16_t *const *counts,
                                size_t pool_size, size_t n_inputs,
                                size_t n_cycles, int *out)
{
    SCDCNN_ASSERT(pool_size > 0, "binary average pooling of nothing");
    const int pool = static_cast<int>(pool_size);
    for (size_t i = 0; i < n_cycles; ++i) {
        int sum = 0;
        for (size_t j = 0; j < pool_size; ++j)
            sum += 2 * static_cast<int>(counts[j][i]) -
                   static_cast<int>(n_inputs);
        out[i] = sum / pool; // C++ division truncates toward zero
    }
}

void
averagePoolingRange(const uint64_t *const *inputs, size_t n_inputs,
                    size_t n_cycles, sc::Xoshiro256ss &rng, uint64_t *out)
{
    SCDCNN_ASSERT(n_inputs > 0, "average pooling with no inputs");
    const size_t n_words = (n_cycles + 63) / 64;
    std::fill(out, out + n_words, uint64_t{0});
    for (size_t i = 0; i < n_cycles; ++i) {
        const size_t sel = static_cast<size_t>(rng.nextBelow(n_inputs));
        if ((inputs[sel][i / 64] >> (i % 64)) & 1)
            out[i / 64] |= uint64_t{1} << (i % 64);
    }
}

namespace {

void
checkBinaryMaxPool(const std::vector<std::vector<uint16_t>> &counts,
                   size_t segment_len, size_t first_choice)
{
    SCDCNN_ASSERT(!counts.empty(), "binary max pooling of nothing");
    SCDCNN_ASSERT(segment_len > 0, "segment length must be positive");
    SCDCNN_ASSERT(first_choice < counts.size(),
                  "first segment choice %zu out of range", first_choice);
    const size_t len = counts[0].size();
    for (const auto &c : counts)
        SCDCNN_ASSERT(c.size() == len, "count sequence length mismatch");
}

} // namespace

void
binaryMaxPoolRange(const uint16_t *const *counts, size_t n_inputs,
                   size_t abs_begin, size_t n_cycles, size_t segment_len,
                   bool accumulate, MaxPoolCarryState &state, uint16_t *out)
{
    // The shared walk with the bit counters replaced by count
    // accumulators (SIMD-dispatched segment sums) and forwarding by
    // element copy.
    rangedSelectorWalk(
        n_inputs, abs_begin, n_cycles, segment_len, accumulate, state,
        [&](size_t selected, size_t lo, size_t hi) {
            std::copy(counts[selected] + lo, counts[selected] + hi,
                      out + lo);
        },
        [&](size_t k, size_t lo, size_t hi) {
            return sc::simd::avx2SumU16(counts[k] + lo, hi - lo);
        });
}

void
binaryMaxPoolPlanesBatch(const uint64_t *const *planes, size_t n_images,
                         size_t n_inputs, size_t plane_cap, bool parity,
                         size_t abs_begin, size_t n_cycles,
                         size_t segment_len, bool accumulate,
                         MaxPoolCarryState *const *states,
                         uint16_t *const *outs)
{
    SCDCNN_ASSERT(n_inputs > 0, "max pooling with no inputs");
    SCDCNN_ASSERT(segment_len > 0, "segment length must be positive");
    SCDCNN_ASSERT(abs_begin % 64 == 0,
                  "plane pooling needs a word-aligned range start, got %zu",
                  abs_begin);
    const size_t pstride = plane_cap + 1;
    const size_t end = abs_begin + n_cycles;

    if (segment_len % 16 == 0 && plane_cap <= 12) {
        // Group-granular fast path (covers the paper's c = 16): with
        // abs_begin word-aligned, every chunk boundary except a final
        // mid-stream-less tail lands on a 16-cycle group, so segment
        // evidence reduces to precomputed per-word group sums (one
        // vectorized byte-popcount pass per plane quad) and forwarding
        // spreads exactly the groups it emits. A partial tail group
        // (the stream's last word) is exact because the producer
        // zero-masks cycles past the stream length; its spread writes
        // the full 16-entry group, which stays inside the caller's
        // word-granular output buffer.
        const size_t range_words = (n_cycles + 63) / 64;
        sc::simd::PlaneSumWeights wts;
        sc::simd::planeSumWeightsInit(wts, plane_cap, parity);
        thread_local std::vector<uint32_t> gsums;
        thread_local std::vector<const uint64_t *> selp;
        thread_local std::vector<uint16_t *> outp;
        thread_local std::vector<uint64_t> cnt;
        thread_local std::vector<uint32_t> sel;
        gsums.resize(n_images * n_inputs * range_words * 4);
        selp.resize(n_images);
        outp.resize(n_images);
        cnt.resize(n_images * n_inputs);
        sel.resize(n_images);
        // One dispatch builds the whole (image, input, group) sum
        // table: planes' (j, k) buffer order matches the Multi
        // contract, and entry g of a buffer is contiguous
        // (base + (g/4)*4 + g%4 == base + g).
        sc::simd::avx2PlaneWordSumsMulti(planes, n_images * n_inputs,
                                         pstride, range_words, wts,
                                         gsums.data());
        // The walk runs on flat local copies of the carried selector
        // state — the per-(image, chunk) loads of the carried-state
        // objects are a measurable share of the walk at c = 16.
        for (size_t j = 0; j < n_images; ++j) {
            const MaxPoolCarryState &state = *states[j];
            SCDCNN_ASSERT(state.counters.size() == n_inputs,
                          "pool state holds %zu counters for %zu inputs",
                          state.counters.size(), n_inputs);
            sel[j] = static_cast<uint32_t>(state.selected);
            std::copy(state.counters.begin(), state.counters.end(),
                      cnt.begin() + j * n_inputs);
        }
        size_t pos = abs_begin;
        while (pos < end) {
            const size_t seg_end = (pos / segment_len + 1) * segment_len;
            const size_t chunk_end = std::min(end, seg_end);
            const size_t g0 = (pos - abs_begin) / 16;
            const size_t g1 = (chunk_end - abs_begin + 15) / 16;
            const bool decide = chunk_end == seg_end;
            // Selections are stable within a chunk (decisions happen
            // only at its end), so forward the whole micro-batch per
            // group in one dispatch.
            for (size_t g = g0; g < g1; ++g) {
                const size_t woff = (g / 4) * pstride;
                for (size_t j = 0; j < n_images; ++j) {
                    selp[j] = planes[j * n_inputs + sel[j]] + woff;
                    outp[j] = outs[j] + g * 16;
                }
                sc::simd::avx2SpreadPlanesGroupMulti(
                    selp.data(), n_images, plane_cap, parity, g % 4,
                    outp.data());
            }
            for (size_t j = 0; j < n_images; ++j) {
                uint64_t *cj = cnt.data() + j * n_inputs;
                const uint32_t *js =
                    gsums.data() + j * n_inputs * range_words * 4;
                for (size_t k = 0; k < n_inputs; ++k) {
                    const uint32_t *ks = js + k * range_words * 4;
                    uint64_t sum = 0;
                    for (size_t g = g0; g < g1; ++g)
                        sum += ks[g];
                    cj[k] += sum;
                }
                if (decide) {
                    size_t best = 0;
                    uint64_t best_count = 0;
                    for (size_t k = 0; k < n_inputs; ++k) {
                        if (cj[k] > best_count) {
                            best_count = cj[k];
                            best = k;
                        }
                    }
                    if (!accumulate)
                        std::fill(cj, cj + n_inputs, uint64_t{0});
                    sel[j] = static_cast<uint32_t>(best);
                }
            }
            pos = chunk_end;
        }
        for (size_t j = 0; j < n_images; ++j) {
            MaxPoolCarryState &state = *states[j];
            state.selected = sel[j];
            std::copy(cnt.begin() + j * n_inputs,
                      cnt.begin() + (j + 1) * n_inputs,
                      state.counters.begin());
        }
        return;
    }

    // General path for segment lengths off the 16-cycle grid: masked
    // plane popcounts per chunk, whole-word transposes memoized per
    // image so consecutive chunks of one word with a stable selection
    // pay one transpose.
    thread_local std::vector<uint16_t> scratch;
    thread_local std::vector<std::pair<size_t, size_t>> keys;
    scratch.resize(n_images * 64);
    keys.assign(n_images, {SIZE_MAX, SIZE_MAX});

    size_t pos = abs_begin;
    while (pos < end) {
        const size_t seg_end = (pos / segment_len + 1) * segment_len;
        const size_t chunk_end = std::min(end, seg_end);
        const size_t lo = pos - abs_begin;
        const size_t hi = chunk_end - abs_begin;
        const bool decide = chunk_end == seg_end;
        for (size_t j = 0; j < n_images; ++j) {
            MaxPoolCarryState &state = *states[j];
            SCDCNN_ASSERT(state.counters.size() == n_inputs,
                          "pool state holds %zu counters for %zu inputs",
                          state.counters.size(), n_inputs);
            const uint64_t *const *in = planes + j * n_inputs;
            // Forward the selected input's cycles [lo, hi).
            const uint64_t *sel = in[state.selected];
            size_t l = lo;
            while (l < hi) {
                const size_t q = l / 64;
                const size_t qend = std::min(hi, (q + 1) * 64);
                if (l == q * 64 && qend == (q + 1) * 64) {
                    sc::simd::avx2SpreadPlanesWord(sel + q * pstride,
                                                   plane_cap, parity,
                                                   outs[j] + q * 64);
                } else {
                    uint16_t *buf = scratch.data() + j * 64;
                    if (keys[j].first != state.selected ||
                        keys[j].second != q) {
                        sc::simd::avx2SpreadPlanesWord(sel + q * pstride,
                                                       plane_cap, parity,
                                                       buf);
                        keys[j] = {state.selected, q};
                    }
                    std::copy(buf + (l - q * 64), buf + (qend - q * 64),
                              outs[j] + l);
                }
                l = qend;
            }
            // Segment evidence from plane popcounts: with canonical
            // digit planes, sum(count & ~1) over a bit range is
            // sum_{p>=1} 2^p popcount(plane_p), and the substituted
            // LSBs add popcount(parity word).
            for (size_t k = 0; k < n_inputs; ++k) {
                const uint64_t *pk = in[k];
                uint64_t sum = 0;
                size_t l2 = lo;
                while (l2 < hi) {
                    const size_t q = l2 / 64;
                    const size_t qend = std::min(hi, (q + 1) * 64);
                    const size_t b0 = l2 - q * 64;
                    const size_t nb = qend - l2;
                    const uint64_t mask =
                        (nb == 64 ? ~uint64_t{0}
                                  : ((uint64_t{1} << nb) - 1))
                        << b0;
                    const uint64_t *wq = pk + q * pstride;
                    size_t p = parity ? 1 : 0;
                    for (; p < plane_cap; ++p)
                        sum += static_cast<uint64_t>(
                                   std::popcount(wq[p] & mask))
                               << p;
                    if (parity)
                        sum += static_cast<uint64_t>(
                            std::popcount(wq[plane_cap] & mask));
                    l2 = qend;
                }
                state.counters[k] += sum;
            }
            if (decide) {
                size_t best = 0;
                uint64_t best_count = 0;
                for (size_t k = 0; k < n_inputs; ++k) {
                    if (state.counters[k] > best_count) {
                        best_count = state.counters[k];
                        best = k;
                    }
                    if (!accumulate)
                        state.counters[k] = 0;
                }
                state.selected = best;
            }
        }
        pos = chunk_end;
    }
}

std::vector<uint16_t>
binaryMaxPoolReference(const std::vector<std::vector<uint16_t>> &counts,
                       size_t segment_len, size_t first_choice,
                       bool accumulate)
{
    checkBinaryMaxPool(counts, segment_len, first_choice);
    const size_t len = counts[0].size();
    std::vector<uint16_t> out(len);
    std::vector<uint64_t> accumulators(counts.size(), 0);
    size_t selected = first_choice;
    for (size_t seg_begin = 0; seg_begin < len; seg_begin += segment_len) {
        const size_t seg_end = std::min(len, seg_begin + segment_len);
        for (size_t i = seg_begin; i < seg_end; ++i)
            out[i] = counts[selected][i];
        size_t best = 0;
        uint64_t best_sum = 0;
        for (size_t k = 0; k < counts.size(); ++k) {
            for (size_t i = seg_begin; i < seg_end; ++i)
                accumulators[k] += counts[k][i];
            if (accumulators[k] > best_sum) {
                best_sum = accumulators[k];
                best = k;
            }
            if (!accumulate)
                accumulators[k] = 0;
        }
        selected = best;
    }
    return out;
}

std::vector<uint16_t>
BinaryMaxPooling::compute(const std::vector<std::vector<uint16_t>> &counts,
                          size_t segment_len, size_t first_choice,
                          bool accumulate)
{
    checkBinaryMaxPool(counts, segment_len, first_choice);
    std::vector<const uint16_t *> ptrs(counts.size());
    for (size_t k = 0; k < counts.size(); ++k)
        ptrs[k] = counts[k].data();
    MaxPoolCarryState state;
    state.reset(counts.size(), first_choice);
    std::vector<uint16_t> out(counts[0].size());
    binaryMaxPoolRange(ptrs.data(), ptrs.size(), 0, out.size(), segment_len,
                       accumulate, state, out.data());
    return out;
}

} // namespace blocks
} // namespace scdcnn
