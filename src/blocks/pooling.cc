#include "blocks/pooling.h"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "common/logging.h"
#include "sc/ops.h"
#include "sc/popcount.h"
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
                   size_t segment_len, bool accumulate, MaxPoolCarry state,
                   Forward &&forward, Evidence &&evidence)
{
    SCDCNN_ASSERT(n_inputs > 0, "max pooling with no inputs");
    SCDCNN_ASSERT(segment_len > 0, "segment length must be positive");
    size_t pos = abs_begin;
    const size_t end = abs_begin + n_cycles;
    while (pos < end) {
        const size_t seg_end = (pos / segment_len + 1) * segment_len;
        const size_t chunk_end = std::min(end, seg_end);
        const size_t lo = pos - abs_begin;
        const size_t hi = chunk_end - abs_begin;
        forward(*state.selected, lo, hi);
        for (size_t k = 0; k < n_inputs; ++k)
            state.counters[k] += evidence(k, lo, hi);
        if (chunk_end == seg_end) {
            uint32_t best = 0;
            uint64_t best_count = 0;
            for (size_t k = 0; k < n_inputs; ++k) {
                if (state.counters[k] > best_count) {
                    best_count = state.counters[k];
                    best = static_cast<uint32_t>(k);
                }
                if (!accumulate)
                    state.counters[k] = 0;
            }
            *state.selected = best;
        }
        pos = chunk_end;
    }
}

} // namespace

void
maxPoolStreamsRange(const uint64_t *const *inputs, size_t n_inputs,
                    size_t abs_begin, size_t n_cycles, size_t segment_len,
                    bool accumulate, MaxPoolCarry state, uint64_t *out)
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
                        segment_len, accumulate, state.view(),
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
binaryAveragePoolingSignedPlanes(const sc::simd::PlaneTile &tile, size_t px,
                                 size_t n_inputs, size_t n_cycles,
                                 uint16_t *counts, int *out)
{
    SCDCNN_ASSERT(tile.n_inputs >= 1 && tile.n_inputs <= 4,
                  "%zu tile inputs, 1 to 4", tile.n_inputs);
    const uint16_t *windows[4];
    for (size_t k = 0; k < tile.n_inputs; ++k) {
        uint16_t *const window = counts + k * tile.n_words * 64;
        sc::simd::tileCounts(tile, k, px, window);
        windows[k] = window;
    }
    binaryAveragePoolingSignedRange(windows, tile.n_inputs, n_inputs,
                                    n_cycles, out);
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
                   bool accumulate, MaxPoolCarry state, uint16_t *out)
{
    // The shared walk with the bit counters replaced by count
    // accumulators and forwarding by element copy.
    rangedSelectorWalk(
        n_inputs, abs_begin, n_cycles, segment_len, accumulate, state,
        [&](size_t selected, size_t lo, size_t hi) {
            std::copy(counts[selected] + lo, counts[selected] + hi,
                      out + lo);
        },
        [&](size_t k, size_t lo, size_t hi) {
            return std::accumulate(counts[k] + lo, counts[k] + hi,
                                   uint64_t{0});
        });
}

sc::simd::PlaneTile
binaryMaxPoolPlanesBatch(const sc::simd::PlaneTile &tile, size_t n_pixels,
                         size_t abs_begin, size_t n_cycles,
                         size_t segment_len, bool accumulate,
                         MaxPoolTileCarry carry, uint8_t *winners,
                         std::vector<uint64_t> &forwarded)
{
    SCDCNN_ASSERT(segment_len > 0, "segment length must be positive");
    SCDCNN_ASSERT(abs_begin % 64 == 0,
                  "plane pooling needs a word-aligned range start, got %zu",
                  abs_begin);
    SCDCNN_ASSERT(tile.n_words == (n_cycles + 63) / 64,
                  "%zu tile words for %zu cycles", tile.n_words, n_cycles);
    const size_t S = tile.pixel_stride;

    if (segment_len % 16 == 0 && tile.plane_cap <= 12) {
        // The 16-cycle grid: with abs_begin word-aligned, every pooling
        // decision falls on a group boundary. A partial tail group (the
        // stream's last word) never decides, and its sum is exact
        // because the producer zero-masks cycles past the stream
        // length. The decision schedule is shared by every pixel: group
        // g decides when it closes a pooling segment inside the range,
        // and then resets the counters unless they accumulate.
        const size_t n_groups = (n_cycles + 15) / 16;
        thread_local std::vector<uint16_t> sums;
        thread_local std::vector<uint8_t> steps;
        sums.resize(tile.n_words * 16 * S);
        steps.resize(n_groups);
        sc::simd::tileGroupSums(tile, n_pixels, sums.data());
        for (size_t g = 0; g < n_groups; ++g) {
            const size_t g_end = 16 * (g + 1);
            const bool decide = g_end <= n_cycles &&
                                (abs_begin + g_end) % segment_len == 0;
            steps[g] = static_cast<uint8_t>(decide | (decide && !accumulate)
                                                         << 1);
        }
        sc::simd::tileSelectorWalk(sums.data(), steps.data(), n_groups,
                                   tile.plane_cap, S, n_pixels,
                                   carry.counters, carry.selected, winners);
        return tile;
    }

    // General path for segment lengths off the 16-cycle grid: the
    // shared walk per pixel, with evidence from masked plane popcounts
    // and forwarding by masked copies of the selected input's plane
    // words into a one-input tile.
    const size_t n_rows = tile.plane_cap + 1;
    sc::simd::PlaneTile out = tile;
    out.n_inputs = 1;
    forwarded.assign(tile.n_words * n_rows * S, 0);
    out.planes = forwarded.data();
    std::fill(winners, winners + tile.n_words * S * 4, uint8_t{0});
    const auto maskOf = [](size_t l, size_t q, size_t hi) {
        const size_t nb = std::min(hi, (q + 1) * 64) - l;
        return (nb == 64 ? ~uint64_t{0} : ((uint64_t{1} << nb) - 1))
               << (l - q * 64);
    };
    for (size_t px = 0; px < n_pixels; ++px) {
        uint64_t counters[4];
        for (size_t k = 0; k < tile.n_inputs; ++k)
            counters[k] = carry.counters[k * S + px];
        rangedSelectorWalk(
            tile.n_inputs, abs_begin, n_cycles, segment_len, accumulate,
            {counters, &carry.selected[px]},
            [&](size_t selected, size_t lo, size_t hi) {
                for (size_t l = lo; l < hi; l = (l / 64 + 1) * 64) {
                    const size_t q = l / 64;
                    const uint64_t mask = maskOf(l, q, hi);
                    for (size_t r = 0; r < n_rows; ++r)
                        forwarded[(q * n_rows + r) * S + px] |=
                            tile.row(selected, q, r)[px] & mask;
                }
            },
            // With canonical digit planes, a range's count sum is
            // sum_p 2^p popcount(plane_p) over it, plane 0 swapped for
            // the parity word under the LSB substitution.
            [&](size_t k, size_t lo, size_t hi) {
                uint64_t sum = 0;
                for (size_t l = lo; l < hi; l = (l / 64 + 1) * 64) {
                    const size_t q = l / 64;
                    const uint64_t mask = maskOf(l, q, hi);
                    for (size_t p = 0; p < tile.plane_cap; ++p)
                        sum += static_cast<uint64_t>(sc::popcountSwar(
                                   tile.row(k, q, tile.digitRow(p))[px] &
                                   mask))
                               << p;
                }
                return sum;
            });
        for (size_t k = 0; k < tile.n_inputs; ++k)
            carry.counters[k * S + px] = counters[k];
    }
    return out;
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
                       accumulate, state.view(), out.data());
    return out;
}

} // namespace blocks
} // namespace scdcnn
