#include "sc/sng.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sc/simd.h"

namespace scdcnn {
namespace sc {

Bitstream
constantStream(bool v, size_t length)
{
    Bitstream s(length);
    if (v) {
        for (auto &w : s.mutableWords())
            w = ~uint64_t{0};
        s.maskTail();
    }
    return s;
}

Bitstream
sngUnipolar(double p, size_t length, Lfsr &lfsr)
{
    p = std::clamp(p, 0.0, 1.0);
    // LFSR states are uniform over [1, period]; emit 1 iff state <= T.
    const uint64_t period = lfsr.period();
    const auto threshold =
        static_cast<uint64_t>(std::llround(p * static_cast<double>(period)));
    Bitstream s(length);
    auto &words = s.mutableWords();
    for (size_t i = 0; i < length; ++i) {
        if (lfsr.next() <= threshold && threshold > 0)
            words[i / 64] |= uint64_t{1} << (i % 64);
    }
    return s;
}

Bitstream
sngBipolar(double x, size_t length, Lfsr &lfsr)
{
    return sngUnipolar((x + 1.0) / 2.0, length, lfsr);
}

uint32_t
sngThreshold(double p)
{
    // Compare 16-bit lanes of each 64-bit draw against a 16-bit
    // threshold: 4 stream bits per generator call. The 1/65536 value
    // quantization is far below stochastic noise at practical lengths.
    return static_cast<uint32_t>(
        std::llround(std::clamp(p, 0.0, 1.0) * 65536.0));
}

namespace {

/** Stream bits of @p draws consecutive draws (four per draw, 16-bit
 *  lanes low first), draw d's nibble at bits [4d, 4d + 4). */
inline uint64_t
sngWord(uint32_t threshold, Xoshiro256ss &rng, size_t draws)
{
    uint64_t word = 0;
    for (size_t d = 0; d < draws; ++d) {
        const uint64_t r = rng.next();
        const uint64_t nibble =
            uint64_t{(r & 0xFFFF) < threshold} |
            uint64_t{((r >> 16) & 0xFFFF) < threshold} << 1 |
            uint64_t{((r >> 32) & 0xFFFF) < threshold} << 2 |
            uint64_t{(r >> 48) < threshold} << 3;
        word |= nibble << (4 * d);
    }
    return word;
}

/** The scalar word body behind sngUnipolarInto, from the threshold. */
void
sngWords(uint32_t threshold, size_t length, Xoshiro256ss &rng,
         uint64_t *words)
{
    const size_t full = length / 64;
    for (size_t w = 0; w < full; ++w)
        words[w] = sngWord(threshold, rng, 16);
    if (const size_t tail = length % 64)
        words[full] = sngWord(threshold, rng, (tail + 3) / 4) &
                      ((uint64_t{1} << tail) - 1);
}

} // namespace

void
sngUnipolarInto(double p, size_t length, Xoshiro256ss &rng,
                uint64_t *words)
{
    sngWords(sngThreshold(p), length, rng, words);
}

Bitstream
referenceSngUnipolar(double p, size_t length, Xoshiro256ss &rng)
{
    const uint32_t threshold = sngThreshold(p);
    Bitstream s(length);
    auto &words = s.mutableWords();
    size_t bit = 0;
    while (bit < length) {
        uint64_t draw = rng.next();
        for (int lane = 0; lane < 4 && bit < length; ++lane, ++bit) {
            uint32_t r = static_cast<uint32_t>(draw >> (16 * lane)) & 0xFFFF;
            if (r < threshold)
                words[bit / 64] |= uint64_t{1} << (bit % 64);
        }
    }
    return s;
}

Bitstream
sngUnipolar(double p, size_t length, Xoshiro256ss &rng)
{
    Bitstream s(length);
    sngUnipolarInto(p, length, rng, s.mutableWords().data());
    return s;
}

Bitstream
sngBipolar(double x, size_t length, Xoshiro256ss &rng)
{
    return sngUnipolar((x + 1.0) / 2.0, length, rng);
}

SngBank::SngBank(uint64_t master_seed) : seeder_(master_seed) {}

Bitstream
SngBank::bipolar(double x, size_t length)
{
    Bitstream s(length);
    bipolarInto(x, length, s.mutableWords().data());
    return s;
}

void
SngBank::bipolarInto(double x, size_t length, uint64_t *words)
{
    Xoshiro256ss rng(seeder_.next());
    sngUnipolarInto((x + 1.0) / 2.0, length, rng, words);
}

void
SngBank::bipolarInto(std::span<const double> xs, size_t length,
                     uint64_t *out, size_t out_stride)
{
    size_t i = 0;
    for (; i + 4 <= xs.size(); i += 4) {
        // Braced initializers evaluate in order: seeds i..i+3.
        Xoshiro256ss rngs[4] = {makeRng(), makeRng(), makeRng(),
                                makeRng()};
        uint32_t thresholds[4];
        uint64_t *outs[4];
        for (size_t f = 0; f < 4; ++f) {
            thresholds[f] = sngThreshold((xs[i + f] + 1.0) / 2.0);
            outs[f] = out + (i + f) * out_stride;
        }
        if (!simd::avx2SngUnipolar4(thresholds, rngs, length, outs)) {
            for (size_t f = 0; f < 4; ++f)
                sngWords(thresholds[f], length, rngs[f], outs[f]);
        }
    }
    for (; i < xs.size(); ++i)
        bipolarInto(xs[i], length, out + i * out_stride);
}

Bitstream
SngBank::unipolar(double p, size_t length)
{
    Xoshiro256ss rng(seeder_.next());
    return sngUnipolar(p, length, rng);
}

Xoshiro256ss
SngBank::makeRng()
{
    return Xoshiro256ss(seeder_.next());
}

} // namespace sc
} // namespace scdcnn
