/**
 * @file
 * Random number generators for stochastic number generation.
 *
 * Hardware SNGs are driven by linear-feedback shift registers (the paper
 * adopts the energy-efficient RNG design of Kim et al., ASP-DAC'16); the
 * Lfsr class models a Fibonacci LFSR with maximal-length taps for widths
 * 4..32. For Monte-Carlo harnesses (which are host-side experiments, not
 * hardware) SplitMix64/Xoshiro256** provide fast high-quality streams.
 * Everything is deterministic and seedable so experiments reproduce.
 */

#ifndef SCDCNN_SC_RNG_H
#define SCDCNN_SC_RNG_H

#include <cstdint>

namespace scdcnn {
namespace sc {

/**
 * Maximal-length Fibonacci LFSR.
 *
 * The register cycles through all 2^width - 1 non-zero states. next()
 * returns the current state and advances by one shift.
 */
class Lfsr
{
  public:
    /** @param width register width in bits (4..32)
     *  @param seed  initial state; 0 is remapped to 1 (all-zero locks up) */
    explicit Lfsr(unsigned width = 16, uint32_t seed = 1);

    /** Current state, then advance one step. */
    uint32_t next();

    /** One pseudo-random bit (the LFSR output bit), then advance. */
    bool nextBit();

    /** Register width in bits. */
    unsigned width() const { return width_; }

    /** Number of distinct states, 2^width - 1. */
    uint64_t period() const { return (uint64_t{1} << width_) - 1; }

    /** Current state without advancing. */
    uint32_t state() const { return state_; }

  private:
    unsigned width_;
    uint32_t state_;
    uint32_t tap_mask_;
};

/**
 * SplitMix64 — tiny, fast, good-quality 64-bit generator. Used to seed
 * other generators and for cheap host-side randomness.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : state_(seed) {}

    /** Next 64 random bits. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    uint64_t nextBelow(uint64_t bound);

    /** Uniform double in [lo, hi). */
    double nextInRange(double lo, double hi);

  private:
    uint64_t state_;
};

/**
 * Xoshiro256** — the workhorse generator for Monte-Carlo sweeps.
 */
class Xoshiro256ss
{
  public:
    explicit Xoshiro256ss(uint64_t seed);

    /** Next 64 random bits. Inline: the SNG bodies draw once per four
     *  stream bits. */
    uint64_t next()
    {
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    uint64_t nextBelow(uint64_t bound);

    /** Uniform double in [lo, hi). */
    double nextInRange(double lo, double hi);

    /** Standard normal via Box-Muller. */
    double nextGaussian();

    /** The four state words, for the lane-parallel SNG body that steps
     *  four generators in vector lanes and writes their states back. */
    uint64_t *state() { return s_; }

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];
    bool have_gauss_ = false;
    double gauss_ = 0.0;
};

} // namespace sc
} // namespace scdcnn

#endif // SCDCNN_SC_RNG_H
