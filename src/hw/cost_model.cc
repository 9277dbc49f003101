#include "hw/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace scdcnn {
namespace hw {

namespace {

/** ceil(log2(v)), at least 1. */
size_t
clog2(size_t v)
{
    size_t bits = 1;
    while ((size_t{1} << bits) < v)
        ++bits;
    return bits;
}

/** Bits needed to hold a count in [0, n]. */
size_t
countBits(size_t n)
{
    return clog2(n + 1);
}

} // namespace

HwCost &
HwCost::operator+=(const HwCost &o)
{
    area_um2 += o.area_um2;
    dynamic_w += o.dynamic_w;
    leakage_w += o.leakage_w;
    delay_ns = std::max(delay_ns, o.delay_ns);
    return *this;
}

HwCost
HwCost::operator+(const HwCost &o) const
{
    HwCost r = *this;
    r += o;
    return r;
}

HwCost
HwCost::times(double n) const
{
    SCDCNN_ASSERT(n >= 0, "negative replication");
    HwCost r = *this;
    r.area_um2 *= n;
    r.dynamic_w *= n;
    r.leakage_w *= n;
    return r;
}

HwCost
HwCost::chainedWith(const HwCost &o) const
{
    HwCost r = *this;
    r.area_um2 += o.area_um2;
    r.dynamic_w += o.dynamic_w;
    r.leakage_w += o.leakage_w;
    r.delay_ns += o.delay_ns;
    return r;
}

double
HwCost::energyForLength(size_t bitstream_len) const
{
    return totalPowerW() * static_cast<double>(bitstream_len) * kClockNs *
           1e-9;
}

HwCost
cells(Cell cell, double count, double depth_levels)
{
    const CellParams &p = cellParams(cell);
    const double activity = cell == Cell::Dff ? 1.0 : kActivity;
    HwCost c;
    c.area_um2 = count * p.area_um2;
    c.dynamic_w = count * p.energy_fj * 1e-15 * activity * kClockHz;
    c.leakage_w = count * p.leakage_nw * 1e-9;
    c.delay_ns = depth_levels * p.delay_ns;
    return c;
}

HwCost
xnorArray(size_t n)
{
    return cells(Cell::Xnor2, static_cast<double>(n), 1.0);
}

HwCost
orTree(size_t n)
{
    SCDCNN_ASSERT(n >= 1, "empty OR tree");
    if (n == 1)
        return HwCost{};
    return cells(Cell::Or2, static_cast<double>(n - 1),
                 static_cast<double>(clog2(n)));
}

HwCost
muxTree(size_t n)
{
    SCDCNN_ASSERT(n >= 1, "empty MUX tree");
    if (n == 1)
        return HwCost{};
    HwCost tree = cells(Cell::Mux2, static_cast<double>(n - 1),
                        static_cast<double>(clog2(n)));
    // Select-line buffering: two inverters per select level.
    tree += cells(Cell::Inv, 2.0 * static_cast<double>(clog2(n)), 0.0);
    return tree;
}

HwCost
parallelCounterExact(size_t n)
{
    SCDCNN_ASSERT(n >= 1, "empty parallel counter");
    const auto bits = static_cast<double>(countBits(n));
    const double fa = std::max(0.0, static_cast<double>(n) - bits);
    HwCost c = cells(Cell::FullAdder, fa, 0.0);
    c += cells(Cell::HalfAdder, bits, 0.0);
    // Wallace-style reduction: ~log2(n) full-adder levels.
    c.delay_ns = static_cast<double>(clog2(std::max<size_t>(n, 2))) *
                 cellParams(Cell::FullAdder).delay_ns;
    return c;
}

HwCost
parallelCounterApprox(size_t n)
{
    // Kim et al. (ISOCC'15): ~40% fewer gates than the accumulative PC.
    HwCost c = parallelCounterExact(n).times(0.6);
    // One reduction level is cut along with the LSB chain.
    c.delay_ns = std::max(cellParams(Cell::FullAdder).delay_ns,
                          c.delay_ns -
                              cellParams(Cell::FullAdder).delay_ns);
    return c;
}

HwCost
stanhFsm(unsigned k)
{
    const auto bits = static_cast<double>(clog2(std::max(2u, k)));
    // State register + inc/dec logic + saturation & threshold decode.
    HwCost c = cells(Cell::Dff, bits, 0.0);
    c += cells(Cell::FullAdder, bits, 0.0);
    c += cells(Cell::And2, 2.0 * bits, 0.0);
    c.delay_ns = cellParams(Cell::FullAdder).delay_ns +
                 cellParams(Cell::And2).delay_ns;
    return c;
}

HwCost
btanhCounter(unsigned k, size_t n)
{
    const auto state_bits = static_cast<double>(clog2(std::max(2u, k)));
    const auto in_bits = static_cast<double>(countBits(n));
    const double width = std::max(state_bits, in_bits + 1);
    HwCost c = cells(Cell::Dff, state_bits, 0.0);
    c += cells(Cell::FullAdder, width, 0.0);
    c += cells(Cell::And2, 2.0 * state_bits, 0.0);
    // Carry-select-ish adder: sqrt pipelining of the ripple chain.
    c.delay_ns = std::sqrt(width) * cellParams(Cell::FullAdder).delay_ns;
    return c;
}

HwCost
avgPoolMux(size_t pool_size)
{
    return muxTree(pool_size);
}

HwCost
hardwareMaxPool(size_t pool_size, size_t segment_len)
{
    SCDCNN_ASSERT(pool_size >= 1, "empty pooling window");
    if (pool_size == 1)
        return HwCost{};
    const auto cnt_bits = static_cast<double>(countBits(segment_len));
    // One segment counter per input stream.
    HwCost c = cells(Cell::Dff, cnt_bits, 0.0)
                   .chainedWith(cells(Cell::HalfAdder, cnt_bits, 0.0))
                   .times(static_cast<double>(pool_size));
    // Comparator tree over the counters.
    c += cells(Cell::FullAdder,
               cnt_bits * static_cast<double>(pool_size - 1), 0.0);
    // Selection register (the "controller" of Figure 8).
    c += cells(Cell::Dff, static_cast<double>(clog2(pool_size)), 0.0);
    // Output MUX in the bit path.
    HwCost mux = muxTree(pool_size);
    c.delay_ns = mux.delay_ns;
    c += mux;
    return c;
}

HwCost
binaryAvgPool(size_t pool_size, size_t n)
{
    SCDCNN_ASSERT(pool_size >= 1, "empty pooling window");
    if (pool_size == 1)
        return HwCost{};
    const auto width = static_cast<double>(countBits(n)) + 2;
    HwCost c = cells(Cell::FullAdder,
                     width * static_cast<double>(pool_size - 1), 0.0);
    // The /pool divider is a wire shift: free.
    c.delay_ns = static_cast<double>(clog2(pool_size)) *
                 cellParams(Cell::FullAdder).delay_ns;
    return c;
}

HwCost
binaryMaxPool(size_t pool_size, size_t n, size_t segment_len)
{
    SCDCNN_ASSERT(pool_size >= 1, "empty pooling window");
    if (pool_size == 1)
        return HwCost{};
    const double width = static_cast<double>(countBits(n)) +
                         static_cast<double>(countBits(segment_len));
    // Accumulators replace the counters of Figure 8.
    HwCost c = cells(Cell::Dff, width, 0.0)
                   .chainedWith(cells(Cell::FullAdder, width, 0.0))
                   .times(static_cast<double>(pool_size));
    // Comparators + word-wide output MUX.
    c += cells(Cell::FullAdder,
               width * static_cast<double>(pool_size - 1), 0.0);
    c += cells(Cell::Mux2,
               static_cast<double>(countBits(n)) *
                   static_cast<double>(pool_size - 1), 0.0);
    c += cells(Cell::Dff, static_cast<double>(clog2(pool_size)), 0.0);
    c.delay_ns = cellParams(Cell::Mux2).delay_ns *
                 static_cast<double>(clog2(pool_size));
    return c;
}

HwCost
lfsr(unsigned width)
{
    HwCost c = cells(Cell::Dff, width, 0.0);
    c += cells(Cell::Xor2, 3.0, 0.0);
    c.delay_ns = cellParams(Cell::Xor2).delay_ns;
    return c;
}

HwCost
sng(unsigned value_bits, double lfsr_share)
{
    // Comparator (borrow chain) against the stored weight/threshold;
    // the threshold itself lives in SRAM, read onto the compare lines.
    HwCost c = cells(Cell::Xor2, value_bits, 0.0);
    c += cells(Cell::And2, value_bits, 0.0);
    c += lfsr(16).times(lfsr_share);
    c.delay_ns = std::sqrt(static_cast<double>(value_bits)) *
                 cellParams(Cell::And2).delay_ns;
    return c;
}

HwCost
febCost(const blocks::FebConfig &cfg)
{
    const size_t n = cfg.n_inputs;
    const size_t pool = cfg.pool_size;
    const unsigned k = blocks::FeatureBlock(cfg).stateCount();

    // Stage-boundary pipeline registers (one per inner product output
    // plus the block output); streams otherwise flow combinationally
    // from the SNGs through the adder within a cycle.
    HwCost lanes = cells(Cell::Dff, static_cast<double>(pool) + 1.0, 0.0);

    HwCost ip; // one inner-product block
    HwCost pooling;
    HwCost act;
    switch (cfg.kind) {
      case blocks::FebKind::MuxAvgStanh:
        ip = xnorArray(n).chainedWith(muxTree(n));
        pooling = avgPoolMux(pool);
        act = stanhFsm(k);
        break;
      case blocks::FebKind::MuxMaxStanh:
        ip = xnorArray(n).chainedWith(muxTree(n));
        pooling = hardwareMaxPool(pool, cfg.segment_len);
        act = stanhFsm(k);
        break;
      case blocks::FebKind::ApcAvgBtanh:
        ip = xnorArray(n).chainedWith(parallelCounterApprox(n));
        pooling = binaryAvgPool(pool, n);
        act = btanhCounter(k, n);
        break;
      case blocks::FebKind::ApcMaxBtanh:
        ip = xnorArray(n).chainedWith(parallelCounterApprox(n));
        pooling = binaryMaxPool(pool, n, cfg.segment_len);
        act = btanhCounter(k, n);
        break;
    }

    HwCost total = ip.times(static_cast<double>(pool));
    total.delay_ns = ip.delay_ns; // the pool IP blocks run in parallel
    total = total.chainedWith(pooling).chainedWith(act);
    total += lanes;
    return total;
}

} // namespace hw
} // namespace scdcnn
