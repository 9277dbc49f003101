/**
 * @file
 * Tests for the gate library and structural cost builders.
 */

#include <gtest/gtest.h>

#include "blocks/feature_block.h"
#include "hw/cost_model.h"
#include "hw/gates.h"

namespace scdcnn {
namespace hw {
namespace {

using blocks::FebConfig;
using blocks::FebKind;

TEST(GateLibrary, AreasFollowNangateOrdering)
{
    // INV < NAND2 < AND2 < XOR2 < MUX2 < FA < DFF in placed area.
    EXPECT_LT(cellParams(Cell::Inv).area_um2,
              cellParams(Cell::Nand2).area_um2);
    EXPECT_LT(cellParams(Cell::Nand2).area_um2,
              cellParams(Cell::And2).area_um2);
    EXPECT_LT(cellParams(Cell::And2).area_um2,
              cellParams(Cell::Xor2).area_um2);
    EXPECT_LT(cellParams(Cell::Xor2).area_um2,
              cellParams(Cell::Mux2).area_um2);
    EXPECT_LT(cellParams(Cell::Mux2).area_um2,
              cellParams(Cell::FullAdder).area_um2);
    EXPECT_LT(cellParams(Cell::FullAdder).area_um2,
              cellParams(Cell::Dff).area_um2);
}

TEST(GateLibrary, NamesAreUnique)
{
    EXPECT_EQ(cellName(Cell::Xnor2), "XNOR2");
    EXPECT_EQ(cellName(Cell::FullAdder), "FA");
    EXPECT_NE(cellName(Cell::And2), cellName(Cell::Or2));
}

TEST(HwCost, AdditionTakesMaxDelay)
{
    HwCost a;
    a.area_um2 = 10;
    a.delay_ns = 1.0;
    HwCost b;
    b.area_um2 = 5;
    b.delay_ns = 2.0;
    HwCost c = a + b;
    EXPECT_DOUBLE_EQ(c.area_um2, 15);
    EXPECT_DOUBLE_EQ(c.delay_ns, 2.0);
}

TEST(HwCost, ChainAddsDelay)
{
    HwCost a;
    a.delay_ns = 1.0;
    HwCost b;
    b.delay_ns = 2.0;
    EXPECT_DOUBLE_EQ(a.chainedWith(b).delay_ns, 3.0);
}

TEST(HwCost, TimesScalesEverythingButDelay)
{
    HwCost a;
    a.area_um2 = 2;
    a.dynamic_w = 3;
    a.leakage_w = 4;
    a.delay_ns = 5;
    HwCost b = a.times(10);
    EXPECT_DOUBLE_EQ(b.area_um2, 20);
    EXPECT_DOUBLE_EQ(b.dynamic_w, 30);
    EXPECT_DOUBLE_EQ(b.leakage_w, 40);
    EXPECT_DOUBLE_EQ(b.delay_ns, 5);
}

TEST(HwCost, EnergyIsPowerTimesStreamTime)
{
    HwCost a;
    a.dynamic_w = 1.0;
    // 1 W for 1024 cycles at 5 ns = 5.12 uJ.
    EXPECT_NEAR(a.energyForLength(1024), 5.12e-6, 1e-12);
}

TEST(Builders, XnorArrayCountsLanes)
{
    EXPECT_NEAR(xnorArray(25).area_um2,
                25 * cellParams(Cell::Xnor2).area_um2, 1e-9);
}

TEST(Builders, MuxTreeUsesNMinusOneMuxes)
{
    double mux_area = cellParams(Cell::Mux2).area_um2;
    // 16-leaf tree: 15 MUX2 plus select buffers.
    EXPECT_GE(muxTree(16).area_um2, 15 * mux_area);
    EXPECT_LT(muxTree(16).area_um2, 15 * mux_area + 10);
}

TEST(Builders, MuxTreeDepthIsLogN)
{
    EXPECT_NEAR(muxTree(16).delay_ns,
                4 * cellParams(Cell::Mux2).delay_ns, 1e-9);
    EXPECT_NEAR(muxTree(2).delay_ns, cellParams(Cell::Mux2).delay_ns,
                1e-9);
}

TEST(Builders, SingleInputDegenerateBlocksAreFree)
{
    EXPECT_DOUBLE_EQ(muxTree(1).area_um2, 0.0);
    EXPECT_DOUBLE_EQ(orTree(1).area_um2, 0.0);
    EXPECT_DOUBLE_EQ(avgPoolMux(1).area_um2, 0.0);
    EXPECT_DOUBLE_EQ(hardwareMaxPool(1, 16).area_um2, 0.0);
}

TEST(Builders, ApproxCounterSavesFortyPercent)
{
    // Table 3 / Kim et al.: APC ~ 60% of the conventional PC gates.
    for (size_t n : {16u, 64u, 256u}) {
        double exact = parallelCounterExact(n).area_um2;
        double approx = parallelCounterApprox(n).area_um2;
        EXPECT_NEAR(approx / exact, 0.6, 1e-9) << n;
    }
}

TEST(Builders, CounterAreaGrowsLinearly)
{
    double a16 = parallelCounterExact(16).area_um2;
    double a64 = parallelCounterExact(64).area_um2;
    EXPECT_GT(a64, 3.0 * a16);
    EXPECT_LT(a64, 6.0 * a16);
}

TEST(Builders, ApcDeeperThanMuxTree)
{
    // Figure 15(b): APC-based paths are the long ones.
    EXPECT_GT(parallelCounterExact(64).delay_ns, muxTree(64).delay_ns);
}

TEST(Builders, StanhSizeGrowsWithStates)
{
    EXPECT_LT(stanhFsm(8).area_um2, stanhFsm(64).area_um2);
}

TEST(Builders, BtanhBiggerThanStanh)
{
    // Btanh carries a multi-bit adder, Stanh only inc/dec.
    EXPECT_GT(btanhCounter(32, 64).area_um2, stanhFsm(32).area_um2);
}

TEST(Builders, SngDominatedByComparatorNotLfsr)
{
    double shared = sng(7, 1.0 / 64.0).area_um2;
    double unshared = sng(7, 1.0).area_um2;
    EXPECT_LT(shared, unshared);
    EXPECT_GT(lfsr(16).area_um2, 16 * 4.0);
}

/** Figure 15 shape checks across FEB kinds and input sizes. */
class FebCostSweep : public ::testing::TestWithParam<int>
{
  public:
    static HwCost costOf(FebKind kind, int n)
    {
        FebConfig cfg;
        cfg.kind = kind;
        cfg.n_inputs = static_cast<size_t>(n);
        cfg.length = 1024;
        return febCost(cfg);
    }
};

TEST_P(FebCostSweep, ApcBlocksCostMoreAreaThanMux)
{
    const int n = GetParam();
    EXPECT_GT(costOf(FebKind::ApcAvgBtanh, n).area_um2,
              costOf(FebKind::MuxAvgStanh, n).area_um2);
    EXPECT_GT(costOf(FebKind::ApcMaxBtanh, n).area_um2,
              costOf(FebKind::MuxMaxStanh, n).area_um2);
}

TEST_P(FebCostSweep, ApcBlocksAreSlower)
{
    const int n = GetParam();
    EXPECT_GT(costOf(FebKind::ApcAvgBtanh, n).delay_ns,
              costOf(FebKind::MuxAvgStanh, n).delay_ns);
}

TEST_P(FebCostSweep, MaxPoolCostsMoreThanAvgPool)
{
    const int n = GetParam();
    EXPECT_GT(costOf(FebKind::MuxMaxStanh, n).area_um2,
              costOf(FebKind::MuxAvgStanh, n).area_um2);
    EXPECT_GT(costOf(FebKind::ApcMaxBtanh, n).area_um2,
              costOf(FebKind::ApcAvgBtanh, n).area_um2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FebCostSweep,
                         ::testing::Values(16, 32, 64, 128, 256));

TEST(FebCost, AreaGrowsWithInputSize)
{
    for (FebKind kind : {FebKind::MuxAvgStanh, FebKind::ApcMaxBtanh}) {
        EXPECT_LT(FebCostSweep::costOf(kind, 16).area_um2,
                  FebCostSweep::costOf(kind, 256).area_um2);
    }
}

TEST(FebCost, MuxAvgIsTheCheapestDesign)
{
    // Section 6.1: MUX-Avg-Stanh is the most area- and energy-efficient.
    const int n = 64;
    double mux_avg = FebCostSweep::costOf(FebKind::MuxAvgStanh, n).area_um2;
    for (FebKind kind : {FebKind::MuxMaxStanh, FebKind::ApcAvgBtanh,
                         FebKind::ApcMaxBtanh}) {
        EXPECT_LT(mux_avg, FebCostSweep::costOf(kind, n).area_um2);
    }
}

TEST(FebCost, EnergyAtFixedLengthTracksPower)
{
    HwCost apc = FebCostSweep::costOf(FebKind::ApcMaxBtanh, 64);
    HwCost mux = FebCostSweep::costOf(FebKind::MuxAvgStanh, 64);
    EXPECT_GT(apc.energyForLength(1024), mux.energyForLength(1024));
}

} // namespace
} // namespace hw
} // namespace scdcnn
