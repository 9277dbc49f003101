/**
 * @file
 * Stochastic number generators (SNGs).
 *
 * An SNG is a comparator between a random number source and a threshold
 * register: cycle i emits 1 iff rng_i < T. With T proportional to the
 * encoded probability the stream's expected fraction of ones equals that
 * probability. Two source flavours are provided:
 *
 *  - Lfsr-driven: models the hardware SNG (Kim et al., ASP-DAC'16 RNG);
 *  - Xoshiro-driven: fast host-side source for Monte-Carlo experiments.
 *
 * Values outside the encodable range are saturated, mirroring the
 * pre-scaling requirement discussed in Section 3.2 of the paper.
 */

#ifndef SCDCNN_SC_SNG_H
#define SCDCNN_SC_SNG_H

#include <cstdint>
#include <span>

#include "sc/bitstream.h"
#include "sc/rng.h"

namespace scdcnn {
namespace sc {

/** Stream of @p length copies of bit @p v (bipolar +1 / -1). */
Bitstream constantStream(bool v, size_t length);

/** Unipolar stream for p in [0,1] (saturated) from an LFSR SNG. */
Bitstream sngUnipolar(double p, size_t length, Lfsr &lfsr);

/** Bipolar stream for x in [-1,1] (saturated) from an LFSR SNG. */
Bitstream sngBipolar(double x, size_t length, Lfsr &lfsr);

/**
 * Comparator threshold of the Xoshiro-driven SNG for unipolar value
 * @p p: p saturated to [0,1] and quantized to 1/65536, so 0..65536
 * inclusive. A stream bit is 1 iff its 16-bit random lane is below it
 * (0 never fires, 65536 always does).
 */
uint32_t sngThreshold(double p);

/**
 * Word-at-a-time Xoshiro SNG body: writes the ceil(length/64) words of
 * the unipolar stream for @p p to @p words, tail bits past @p length
 * zeroed. Each 64-bit draw of @p rng yields four stream bits (its
 * 16-bit lanes, low lane first, compared against sngThreshold(p)), so
 * a full word takes 16 draws and the tail word ceil(tail/4) — the
 * draw order and count of referenceSngUnipolar, whose output it
 * reproduces bit for bit, leaving @p rng in the same state.
 */
void sngUnipolarInto(double p, size_t length, Xoshiro256ss &rng,
                     uint64_t *words);

/** Reference twin of sngUnipolarInto: one stream bit per loop step
 *  with a data-dependent branch — the oracle the word bodies (scalar
 *  and AVX2) are tested against. */
Bitstream referenceSngUnipolar(double p, size_t length, Xoshiro256ss &rng);

/** Unipolar stream from a Xoshiro-driven SNG (Monte-Carlo harnesses). */
Bitstream sngUnipolar(double p, size_t length, Xoshiro256ss &rng);

/** Bipolar stream from a Xoshiro-driven SNG (Monte-Carlo harnesses). */
Bitstream sngBipolar(double x, size_t length, Xoshiro256ss &rng);

/**
 * A bank of independent SNGs.
 *
 * Hardware shares physical RNGs between SNGs via phase shifting; for
 * simulation purposes what matters is that distinct operands receive
 * streams that are statistically independent of each other. The bank
 * derives one fresh generator per request from a master seed, so a given
 * bank instance reproduces the same stream sequence run after run.
 */
class SngBank
{
  public:
    explicit SngBank(uint64_t master_seed);

    /** Next independent bipolar stream for x in [-1,1]. */
    Bitstream bipolar(double x, size_t length);

    /** bipolar() written straight into the ceil(length/64) words at
     *  @p words (tail bits zeroed), without a temporary Bitstream. */
    void bipolarInto(double x, size_t length, uint64_t *words);

    /**
     * The next xs.size() independent bipolar streams, stream i written
     * to out + i * out_stride (words as in the single-stream form).
     * Identical to xs.size() successive bipolar() calls: one generator
     * per stream, seeded in order. Runs four streams at a time through
     * simd::avx2SngUnipolar4 when AVX2 is enabled; the scalar word body
     * covers the rest.
     */
    void bipolarInto(std::span<const double> xs, size_t length,
                     uint64_t *out, size_t out_stride);

    /** Next independent unipolar stream for p in [0,1]. */
    Bitstream unipolar(double p, size_t length);

    /** A fresh independent generator (for MUX select lines etc.). */
    Xoshiro256ss makeRng();

  private:
    SplitMix64 seeder_;
};

} // namespace sc
} // namespace scdcnn

#endif // SCDCNN_SC_SNG_H
