#include "sc/fsm_batch.h"

#include <algorithm>

#include "common/logging.h"
#include "sc/simd.h"

namespace scdcnn {
namespace sc {

StanhBatchTable::StanhBatchTable(unsigned k, int threshold) : k_(k)
{
    if (k_ < 2)
        fatal("StanhBatchTable needs at least 2 states, got %u", k_);
    threshold_ =
        threshold < 0 ? k_ / 2 : static_cast<unsigned>(threshold);
    SCDCNN_ASSERT(threshold_ < k_, "Stanh threshold %u >= K %u",
                  threshold_, k_);
    initial_state_ = k_ / 2;

    // Tabulate 8 scalar Stanh steps per (state, input byte), LSB-first
    // (cycle order within a byte follows the packed-word layout).
    table_.resize(static_cast<size_t>(k_) * 256);
    for (unsigned s = 0; s < k_; ++s) {
        for (unsigned byte = 0; byte < 256; ++byte) {
            unsigned state = s;
            uint8_t out = 0;
            for (int j = 0; j < 8; ++j) {
                if ((byte >> j) & 1) {
                    if (state + 1 < k_)
                        ++state;
                } else if (state > 0) {
                    --state;
                }
                if (state >= threshold_)
                    out |= static_cast<uint8_t>(1u << j);
            }
            table_[(static_cast<size_t>(s) << 8) | byte] = {
                static_cast<uint16_t>(state), out};
        }
    }
}

void
StanhBatchTable::transformWords(const uint64_t *in, size_t length,
                                uint64_t *out) const
{
    uint16_t state = initialState();
    transformWords(in, length, out, &state);
}

void
StanhBatchTable::transformWords(const uint64_t *in, size_t length,
                                uint64_t *out, uint16_t *state_io) const
{
    const size_t n_words = (length + 63) / 64;
    unsigned state = *state_io;
    for (size_t w = 0; w < n_words; ++w) {
        const uint64_t in_w = in[w];
        uint64_t out_w = 0;
        for (int b = 0; b < 8; ++b) {
            const size_t idx = (static_cast<size_t>(state) << 8) |
                               ((in_w >> (8 * b)) & 0xFF);
            const Entry &e = table_[idx];
            out_w |= static_cast<uint64_t>(e.out) << (8 * b);
            state = e.next;
        }
        out[w] = out_w;
    }
    // The pad cycles past length consumed zero input bits (the stream
    // invariant); their output bits are masked away here.
    const size_t tail = length % 64;
    if (tail != 0 && n_words != 0)
        out[n_words - 1] &= (uint64_t{1} << tail) - 1;
    *state_io = static_cast<uint16_t>(state);
}

void
StanhBatchTable::transformWordsBatch(const uint64_t *const *ins,
                                     size_t length, uint64_t *const *outs,
                                     uint16_t *const *states,
                                     size_t n_streams) const
{
    const size_t n_words = (length + 63) / 64;
    const size_t tail = length % 64;
    for (size_t s0 = 0; s0 < n_streams; s0 += kFsmBatchTile) {
        const size_t tile = std::min(kFsmBatchTile, n_streams - s0);
        unsigned st[kFsmBatchTile];
        for (size_t s = 0; s < tile; ++s)
            st[s] = *states[s0 + s];
        for (size_t w = 0; w < n_words; ++w) {
            uint64_t in_w[kFsmBatchTile];
            uint64_t out_w[kFsmBatchTile] = {};
            for (size_t s = 0; s < tile; ++s)
                in_w[s] = ins[s0 + s][w];
            // Byte outer, stream inner: the tile's serial chains are
            // independent, so the table lookups overlap.
            for (int b = 0; b < 8; ++b) {
                for (size_t s = 0; s < tile; ++s) {
                    const size_t idx =
                        (static_cast<size_t>(st[s]) << 8) |
                        ((in_w[s] >> (8 * b)) & 0xFF);
                    const Entry &e = table_[idx];
                    out_w[s] |= static_cast<uint64_t>(e.out) << (8 * b);
                    st[s] = e.next;
                }
            }
            for (size_t s = 0; s < tile; ++s)
                outs[s0 + s][w] = out_w[s];
        }
        if (tail != 0 && n_words != 0) {
            const uint64_t mask = (uint64_t{1} << tail) - 1;
            for (size_t s = 0; s < tile; ++s)
                outs[s0 + s][n_words - 1] &= mask;
        }
        for (size_t s = 0; s < tile; ++s)
            *states[s0 + s] = static_cast<uint16_t>(st[s]);
    }
}

void
StanhBatchTable::transform(BitstreamView in, Bitstream &out) const
{
    out.reset(in.length);
    if (in.length != 0)
        transformWords(in.words, in.length, out.mutableWords().data());
}

BtanhBatchTable::BtanhBatchTable(unsigned k, unsigned n_inputs)
    : k_(k), n_inputs_(n_inputs)
{
    if (k_ < 2)
        fatal("BtanhBatchTable needs at least 2 states, got %u", k_);
}

unsigned
BtanhBatchTable::stepState(unsigned state, int delta, bool &out_bit) const
{
    int s = static_cast<int>(state) + delta;
    s = std::clamp(s, 0, static_cast<int>(k_) - 1);
    out_bit = s >= static_cast<int>(k_ / 2);
    return static_cast<unsigned>(s);
}

void
BtanhBatchTable::transformWords(const uint16_t *counts, size_t length,
                                uint64_t *out) const
{
    uint16_t state = initialState();
    transformWords(counts, length, out, &state);
}

void
BtanhBatchTable::transformWords(const uint16_t *counts, size_t length,
                                uint64_t *out, uint16_t *state_io) const
{
    const size_t n_words = (length + 63) / 64;
    const int n = static_cast<int>(n_inputs_);
    unsigned state = *state_io;
    for (size_t w = 0; w < n_words; ++w) {
        const size_t base = w * 64;
        const size_t limit = std::min<size_t>(64, length - base);
        uint64_t out_w = 0;
        for (size_t b = 0; b < limit; ++b) {
            const int delta = 2 * static_cast<int>(counts[base + b]) - n;
            bool bit;
            state = stepState(state, delta, bit);
            out_w |= static_cast<uint64_t>(bit) << b;
        }
        out[w] = out_w;
    }
    *state_io = static_cast<uint16_t>(state);
}

void
BtanhBatchTable::transformSignedWords(const int *steps, size_t length,
                                      uint64_t *out) const
{
    uint16_t state = initialState();
    transformSignedWords(steps, length, out, &state);
}

void
BtanhBatchTable::transformSignedWords(const int *steps, size_t length,
                                      uint64_t *out, uint16_t *state_io) const
{
    const size_t n_words = (length + 63) / 64;
    unsigned state = *state_io;
    for (size_t w = 0; w < n_words; ++w) {
        const size_t base = w * 64;
        const size_t limit = std::min<size_t>(64, length - base);
        uint64_t out_w = 0;
        for (size_t b = 0; b < limit; ++b) {
            bool bit;
            state = stepState(state, steps[base + b], bit);
            out_w |= static_cast<uint64_t>(bit) << b;
        }
        out[w] = out_w;
    }
    *state_io = static_cast<uint16_t>(state);
}

void
BtanhBatchTable::transformSignedWordsBatch(const int *const *steps,
                                           size_t length,
                                           uint64_t *const *outs,
                                           uint16_t *const *states,
                                           size_t n_streams) const
{
    const size_t n_words = (length + 63) / 64;
    for (size_t s0 = 0; s0 < n_streams; s0 += kFsmBatchTile) {
        const size_t tile = std::min(kFsmBatchTile, n_streams - s0);
        unsigned st[kFsmBatchTile];
        for (size_t s = 0; s < tile; ++s)
            st[s] = *states[s0 + s];
        for (size_t w = 0; w < n_words; ++w) {
            const size_t base = w * 64;
            const size_t limit = std::min<size_t>(64, length - base);
            uint64_t out_w[kFsmBatchTile] = {};
            for (size_t b = 0; b < limit; ++b) {
                for (size_t s = 0; s < tile; ++s) {
                    bool bit;
                    st[s] = stepState(st[s], steps[s0 + s][base + b], bit);
                    out_w[s] |= static_cast<uint64_t>(bit) << b;
                }
            }
            for (size_t s = 0; s < tile; ++s)
                outs[s0 + s][w] = out_w[s];
        }
        for (size_t s = 0; s < tile; ++s)
            *states[s0 + s] = static_cast<uint16_t>(st[s]);
    }
}

void
BtanhBatchTable::transformTile(const simd::PlaneTile &tile,
                               const uint8_t *winners, size_t n_pixels,
                               size_t length, uint16_t *states,
                               uint64_t *outs) const
{
    simd::tileBtanh(tile, winners, n_pixels, length, k_, n_inputs_, states,
                    outs);
}

void
BtanhBatchTable::transform(const std::vector<uint16_t> &counts,
                           Bitstream &out) const
{
    out.reset(counts.size());
    if (!counts.empty())
        transformWords(counts.data(), counts.size(),
                       out.mutableWords().data());
}

void
BtanhBatchTable::transformSigned(const std::vector<int> &steps,
                                 Bitstream &out) const
{
    out.reset(steps.size());
    if (!steps.empty())
        transformSignedWords(steps.data(), steps.size(),
                             out.mutableWords().data());
}

const StanhBatchTable &
FsmTableCache::stanh(unsigned k, int threshold)
{
    // Normalize the default so (k, -1) and (k, k/2) share one table.
    const int thr =
        threshold < 0 ? static_cast<int>(k / 2) : threshold;
    auto &slot = stanh_[{k, thr}];
    if (slot == nullptr)
        slot = std::make_unique<StanhBatchTable>(k, thr);
    return *slot;
}

const BtanhBatchTable &
FsmTableCache::btanh(unsigned k, unsigned n_inputs)
{
    auto &slot = btanh_[{k, n_inputs}];
    if (slot == nullptr)
        slot = std::make_unique<BtanhBatchTable>(k, n_inputs);
    return *slot;
}

} // namespace sc
} // namespace scdcnn
