#include "sc/rng.h"

#include <bit>
#include <cmath>

#include "common/logging.h"

namespace scdcnn {
namespace sc {

namespace {

/**
 * Feedback masks for maximal-length Fibonacci LFSRs, indexed by width.
 *
 * Taken from the standard maximal polynomial tables (Xilinx XAPP052): a
 * tap at exponent t contributes bit (t-1) to the mask. The register
 * shifts left one place per step with the XOR of the tapped bits fed
 * into bit 0, which traverses all 2^width - 1 non-zero states.
 * Maximality for widths 4..20 is verified exhaustively in the unit tests.
 */
const uint32_t kTapMasks[33] = {
    0, 0, 0, 0,
    0xC,         // 4:  x^4 + x^3 + 1
    0x14,        // 5:  x^5 + x^3 + 1
    0x30,        // 6:  x^6 + x^5 + 1
    0x60,        // 7:  x^7 + x^6 + 1
    0xB8,        // 8:  x^8 + x^6 + x^5 + x^4 + 1
    0x110,       // 9:  x^9 + x^5 + 1
    0x240,       // 10: x^10 + x^7 + 1
    0x500,       // 11: x^11 + x^9 + 1
    0x829,       // 12: x^12 + x^6 + x^4 + x^1 + 1
    0x100D,      // 13: x^13 + x^4 + x^3 + x^1 + 1
    0x2015,      // 14: x^14 + x^5 + x^3 + x^1 + 1
    0x6000,      // 15: x^15 + x^14 + 1
    0xD008,      // 16: x^16 + x^15 + x^13 + x^4 + 1
    0x12000,     // 17: x^17 + x^14 + 1
    0x20400,     // 18: x^18 + x^11 + 1
    0x40023,     // 19: x^19 + x^6 + x^2 + x^1 + 1
    0x90000,     // 20: x^20 + x^17 + 1
    0x140000,    // 21: x^21 + x^19 + 1
    0x300000,    // 22: x^22 + x^21 + 1
    0x420000,    // 23: x^23 + x^18 + 1
    0xE10000,    // 24: x^24 + x^23 + x^22 + x^17 + 1
    0x1200000,   // 25: x^25 + x^22 + 1
    0x2000023,   // 26: x^26 + x^6 + x^2 + x^1 + 1
    0x4000013,   // 27: x^27 + x^5 + x^2 + x^1 + 1
    0x9000000,   // 28: x^28 + x^25 + 1
    0x14000000,  // 29: x^29 + x^27 + 1
    0x20000029,  // 30: x^30 + x^6 + x^4 + x^1 + 1
    0x48000000,  // 31: x^31 + x^28 + 1
    0x80400003u, // 32: x^32 + x^22 + x^2 + x^1 + 1
};

} // namespace

Lfsr::Lfsr(unsigned width, uint32_t seed) : width_(width)
{
    if (width_ < 4 || width_ > 32)
        fatal("Lfsr width %u unsupported (need 4..32)", width_);
    tap_mask_ = kTapMasks[width_];
    uint32_t mask =
        width_ == 32 ? 0xFFFFFFFFu : ((uint32_t{1} << width_) - 1);
    state_ = seed & mask;
    if (state_ == 0)
        state_ = 1;
}

uint32_t
Lfsr::next()
{
    uint32_t out = state_;
    // popcount & 1 compiles to an inline parity (xor fold + setnp), not
    // a libgcc call, and beats sc::popcountSwar here.
    uint32_t fb =
        static_cast<uint32_t>(std::popcount(state_ & tap_mask_)) & 1u;
    uint32_t mask =
        width_ == 32 ? 0xFFFFFFFFu : ((uint32_t{1} << width_) - 1);
    state_ = ((state_ << 1) | fb) & mask;
    return out;
}

bool
Lfsr::nextBit()
{
    // The serial output is the bit shifted out of the top of the register.
    return (next() >> (width_ - 1)) & 1;
}

uint64_t
SplitMix64::next()
{
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
SplitMix64::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t
SplitMix64::nextBelow(uint64_t bound)
{
    SCDCNN_ASSERT(bound != 0, "nextBelow(0)");
    return next() % bound;
}

double
SplitMix64::nextInRange(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

Xoshiro256ss::Xoshiro256ss(uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto &s : s_)
        s = sm.next();
}

double
Xoshiro256ss::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t
Xoshiro256ss::nextBelow(uint64_t bound)
{
    SCDCNN_ASSERT(bound != 0, "nextBelow(0)");
    return next() % bound;
}

double
Xoshiro256ss::nextInRange(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

double
Xoshiro256ss::nextGaussian()
{
    if (have_gauss_) {
        have_gauss_ = false;
        return gauss_;
    }
    double u1 = nextDouble();
    double u2 = nextDouble();
    if (u1 < 1e-300)
        u1 = 1e-300;
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    gauss_ = r * std::sin(theta);
    have_gauss_ = true;
    return r * std::cos(theta);
}

} // namespace sc
} // namespace scdcnn
