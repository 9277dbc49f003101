#include "blocks/activation.h"

#include <cmath>

#include "common/logging.h"
#include "sc/btanh.h"

namespace scdcnn {
namespace blocks {

namespace {

double
log2d(double v)
{
    return std::log2(v);
}

} // namespace

unsigned
stanhStateCountAvg(size_t bitstream_len, size_t n_inputs)
{
    SCDCNN_ASSERT(bitstream_len >= 2 && n_inputs >= 2,
                  "degenerate Stanh sizing request");
    constexpr double alpha = 33.27;
    const double n = static_cast<double>(n_inputs);
    const double l = static_cast<double>(bitstream_len);
    const double k =
        2.0 * log2d(n) + (log2d(l) * n) / (alpha * log2d(n));
    return sc::nearestEvenState(k);
}

unsigned
stanhStateCountMax(size_t bitstream_len, size_t n_inputs)
{
    SCDCNN_ASSERT(bitstream_len >= 2 && n_inputs >= 2,
                  "degenerate Stanh sizing request");
    constexpr double alpha = 37.0;
    constexpr double beta = 16.5;
    const double n = static_cast<double>(n_inputs);
    const double l = static_cast<double>(bitstream_len);
    const double log5_l = std::log(l) / std::log(5.0);
    const double k = 2.0 * (log2d(n) + log2d(l)) - alpha / log2d(n) -
                     beta / log5_l;
    return sc::nearestEvenState(k);
}

unsigned
stanhMaxThreshold(unsigned k)
{
    unsigned t = static_cast<unsigned>(
        std::lround(static_cast<double>(k) / 5.0));
    if (t < 1)
        t = 1;
    if (t >= k)
        t = k - 1;
    return t;
}

} // namespace blocks
} // namespace scdcnn
