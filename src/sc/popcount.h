/**
 * @file
 * Word population count that stays inline on every target.
 *
 * A base x86-64 build (no -mpopcnt) compiles std::popcount of a 64-bit
 * word to a call into libgcc's __popcountdi2. The scalar kernels count
 * ones in tight per-word loops, so they use this SWAR form instead: a
 * dozen inline ALU ops that the compiler can unroll and schedule.
 */

#ifndef SCDCNN_SC_POPCOUNT_H
#define SCDCNN_SC_POPCOUNT_H

#include <cstdint>

namespace scdcnn {
namespace sc {

/** Population count of @p v by SWAR bit arithmetic. */
inline uint32_t
popcountSwar(uint64_t v)
{
    v -= (v >> 1) & 0x5555555555555555ull;
    v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
    v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0Full;
    return static_cast<uint32_t>((v * 0x0101010101010101ull) >> 56);
}

} // namespace sc
} // namespace scdcnn

#endif // SCDCNN_SC_POPCOUNT_H
