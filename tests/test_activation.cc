/**
 * @file
 * Tests for the empirical state-count equations (Section 4.4).
 */

#include <gtest/gtest.h>

#include "blocks/activation.h"
#include "sc/btanh.h"

namespace scdcnn {
namespace blocks {
namespace {

TEST(StanhStateCountAvg, MatchesEquationOneByHand)
{
    // N=16, L=1024: 2*4 + (10*16)/(33.27*4) = 8 + 1.202 = 9.2 -> 10.
    EXPECT_EQ(stanhStateCountAvg(1024, 16), 10u);
    // N=64, L=1024: 12 + 640/199.6 = 15.2 -> 16.
    EXPECT_EQ(stanhStateCountAvg(1024, 64), 16u);
}

TEST(StanhStateCountAvg, AlwaysEvenAndAtLeastTwo)
{
    for (size_t n : {4u, 16u, 25u, 64u, 256u, 500u}) {
        for (size_t l : {256u, 512u, 1024u, 4096u}) {
            unsigned k = stanhStateCountAvg(l, n);
            EXPECT_EQ(k % 2, 0u) << n << "," << l;
            EXPECT_GE(k, 2u);
        }
    }
}

TEST(StanhStateCountAvg, GrowsWithInputSize)
{
    EXPECT_LT(stanhStateCountAvg(1024, 16), stanhStateCountAvg(1024, 256));
}

TEST(StanhStateCountAvg, GrowsWithLength)
{
    EXPECT_LE(stanhStateCountAvg(512, 64), stanhStateCountAvg(4096, 64));
}

TEST(StanhStateCountMax, MatchesEquationTwoByHand)
{
    // N=16, L=1024: 2*(4+10) - 37/4 - 16.5/log5(1024)
    // log5(1024) = 6.9315/1.6094 = 4.3067 -> 28 - 9.25 - 3.8312 = 14.9
    EXPECT_EQ(stanhStateCountMax(1024, 16), 14u);
}

TEST(StanhStateCountMax, AlwaysEvenAndAtLeastTwo)
{
    for (size_t n : {16u, 25u, 64u, 256u}) {
        for (size_t l : {256u, 1024u, 4096u}) {
            unsigned k = stanhStateCountMax(l, n);
            EXPECT_EQ(k % 2, 0u);
            EXPECT_GE(k, 2u);
        }
    }
}

TEST(StanhStateCountMax, GrowsWithInputSizeAndLength)
{
    EXPECT_LT(stanhStateCountMax(1024, 16), stanhStateCountMax(1024, 256));
    EXPECT_LT(stanhStateCountMax(256, 64), stanhStateCountMax(4096, 64));
}

TEST(StanhMaxThreshold, OneFifthOfStates)
{
    EXPECT_EQ(stanhMaxThreshold(20), 4u);
    EXPECT_EQ(stanhMaxThreshold(14), 3u);
    EXPECT_EQ(stanhMaxThreshold(10), 2u);
}

TEST(StanhMaxThreshold, ClampedToValidStates)
{
    EXPECT_GE(stanhMaxThreshold(2), 1u);
    EXPECT_LT(stanhMaxThreshold(2), 2u);
    EXPECT_GE(stanhMaxThreshold(4), 1u);
}

TEST(BtanhSizing, EquationThreeIsHalfN)
{
    EXPECT_EQ(sc::Btanh::stateCountAvgPool(16), 8u);
    EXPECT_EQ(sc::Btanh::stateCountAvgPool(256), 128u);
}

TEST(AllStateEquations, PaperKsSmallerThanTwiceNForLargeN)
{
    // The paper's equations accept a flattened response in exchange for
    // fast FSM mixing: K grows ~log, far below the K = 2N that would
    // reproduce tanh of the non-scaled sum.
    for (size_t n : {64u, 256u, 500u}) {
        EXPECT_LT(stanhStateCountAvg(1024, n), 2 * n);
        EXPECT_LT(stanhStateCountMax(1024, n), 2 * n);
    }
}

} // namespace
} // namespace blocks
} // namespace scdcnn
