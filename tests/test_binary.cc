/**
 * @file
 * Unit tests of the binary XNOR-popcount backend: every fused kernel
 * against its bit-serial reference twin on randomized operands, the
 * AVX2 dispatch against forced-scalar execution, the sign-quantizer
 * contract, the full-precision-edges option against a double twin,
 * and forwardBatch determinism in EngineMode::Binary. The randomized
 * end-to-end differentials (reference twin, float sign oracle) live
 * in test_topology_fuzz.cc; this file pins the building blocks.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/binary_net.h"
#include "core/sc_network.h"
#include "nn/dataset.h"
#include "nn/quantize.h"
#include "nn/topology.h"
#include "sc/bitstream.h"
#include "sc/fused.h"
#include "sc/rng.h"
#include "sc/simd.h"

namespace scdcnn {
namespace {

/** Random packed operand + weight block of @p filters x @p n bits. */
struct RandomBlock
{
    sc::Bitstream x;
    sc::InterleavedWeightArena weights;

    RandomBlock(size_t filters, size_t n, uint64_t seed) : x(n)
    {
        sc::Xoshiro256ss rng(seed);
        for (size_t i = 0; i < n; ++i)
            x.set(i, rng.nextBelow(2) == 1);
        weights.reset(filters, 1, n);
        sc::Bitstream w(n);
        for (size_t f = 0; f < filters; ++f) {
            w.reset(n);
            for (size_t i = 0; i < n; ++i)
                w.set(i, rng.nextBelow(2) == 1);
            weights.assign(f, 0, sc::BitstreamView(w));
        }
    }
};

// ------------------------------------------------------ kernel twins

TEST(BinaryKernels, XnorPopcountMatchesReferenceTwin)
{
    // Lengths cross word boundaries (63/64/65), cover the multi-word
    // tail and the sub-word case; filter counts cross the lane width.
    for (size_t n : {1u, 7u, 63u, 64u, 65u, 127u, 128u, 300u}) {
        for (size_t filters : {1u, 3u, 4u, 5u, 9u}) {
            RandomBlock rb(filters, n, 0xB00 + n * 31 + filters);
            for (size_t g = 0; g < rb.weights.groups(); ++g) {
                const sc::WeightBlockView block = rb.weights.block(g);
                uint32_t fused[sc::kFilterLanes];
                uint32_t ref[sc::kFilterLanes];
                sc::fusedXnorPopcountMulti(sc::BitstreamView(rb.x),
                                           block, fused);
                sc::referenceXnorPopcountMulti(sc::BitstreamView(rb.x),
                                               block, ref);
                for (size_t f = 0; f < block.lanes; ++f) {
                    EXPECT_EQ(fused[f], ref[f])
                        << "n=" << n << " filters=" << filters
                        << " group=" << g << " lane=" << f;
                    EXPECT_LE(fused[f], n);
                }
            }
        }
    }
}

TEST(BinaryKernels, XnorPopcountCountsExactMatches)
{
    // Hand-checkable: x all-ones, weight alternating 1010... over 70
    // bits -> matches = number of set weight bits.
    const size_t n = 70;
    sc::Bitstream x(n), w(n);
    for (size_t i = 0; i < n; ++i) {
        x.set(i, true);
        w.set(i, i % 2 == 0);
    }
    sc::InterleavedWeightArena arena;
    arena.reset(1, 1, n);
    arena.assign(0, 0, sc::BitstreamView(w));
    uint32_t matches[sc::kFilterLanes];
    sc::fusedXnorPopcountMulti(sc::BitstreamView(x), arena.block(0),
                               matches);
    EXPECT_EQ(matches[0], 35u);
}

TEST(BinaryKernels, SignPackMatchesReferenceTwinAndZeroesTails)
{
    for (size_t n : {1u, 5u, 63u, 64u, 65u, 130u}) {
        sc::Xoshiro256ss rng(0x51 + n);
        std::vector<int32_t> s(n);
        for (auto &v : s)
            v = static_cast<int32_t>(rng.nextBelow(201)) - 100;
        s[0] = 0; // the tie: s = 0 must pack as bit 1
        const size_t words = (n + 63) / 64;
        std::vector<uint64_t> fused(words, ~uint64_t{0});
        std::vector<uint64_t> ref(words, ~uint64_t{0});
        sc::fusedSignPack(s.data(), n, fused.data());
        sc::referenceSignPack(s.data(), n, ref.data());
        EXPECT_EQ(fused, ref) << "n=" << n;
        EXPECT_EQ(fused[0] & 1, 1u) << "n=" << n; // tie -> +1
        if (n % 64 != 0) {
            EXPECT_EQ(fused.back() >> (n % 64), 0u)
                << "n=" << n << " (tail bits must be zero)";
        }
    }
}

TEST(BinaryKernels, Pool4MatchesReferenceTwinBothFlavours)
{
    for (size_t n_pixels : {1u, 2u, 17u, 64u}) {
        sc::Xoshiro256ss rng(0x90 + n_pixels);
        std::vector<int32_t> windows(n_pixels * 4);
        for (auto &v : windows)
            v = static_cast<int32_t>(rng.nextBelow(401)) - 200;
        for (bool max_pool : {true, false}) {
            std::vector<int32_t> fused(n_pixels), ref(n_pixels);
            sc::fusedBinaryPool4(windows.data(), n_pixels, max_pool,
                                 fused.data());
            sc::referenceBinaryPool4(windows.data(), n_pixels, max_pool,
                                     ref.data());
            EXPECT_EQ(fused, ref)
                << "n_pixels=" << n_pixels << " max=" << max_pool;
        }
        // Spot-check semantics on the first pixel.
        const int32_t *w0 = windows.data();
        std::vector<int32_t> out(n_pixels);
        sc::fusedBinaryPool4(windows.data(), n_pixels, true, out.data());
        EXPECT_EQ(out[0], std::max(std::max(w0[0], w0[1]),
                                   std::max(w0[2], w0[3])));
        sc::fusedBinaryPool4(windows.data(), n_pixels, false,
                             out.data());
        EXPECT_EQ(out[0], w0[0] + w0[1] + w0[2] + w0[3]);
    }
}

// ------------------------------------------- scalar vs AVX2 dispatch

TEST(BinaryKernels, ForcedScalarIsBitExactWithSimdDispatch)
{
    // The same operands through the default dispatch (AVX2 where the
    // host has it) and with SIMD forced off: identical counts. On a
    // non-AVX2 host both runs take the scalar path and the test
    // degenerates to determinism, which is still worth pinning.
    const sc::simd::Level was_level = sc::simd::level();
    for (size_t n : {64u, 65u, 256u, 1000u}) {
        RandomBlock rb(sc::kFilterLanes, n, 0xD15 + n);
        const sc::WeightBlockView block = rb.weights.block(0);
        uint32_t with_simd[sc::kFilterLanes];
        uint32_t scalar[sc::kFilterLanes];
        sc::simd::setLevel(sc::simd::supportedLevel());
        sc::fusedXnorPopcountMulti(sc::BitstreamView(rb.x), block,
                                   with_simd);
        sc::simd::setLevel(sc::simd::Level::Scalar);
        sc::fusedXnorPopcountMulti(sc::BitstreamView(rb.x), block,
                                   scalar);
        sc::simd::setLevel(was_level);
        for (size_t f = 0; f < block.lanes; ++f)
            EXPECT_EQ(with_simd[f], scalar[f])
                << "n=" << n << " lane=" << f;
    }
}

TEST(BinaryNetworkTest, ForcedScalarPredictionsAreBitExact)
{
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 3);
    const nn::NetworkPlan plan = nn::deriveNetworkPlan(net, 1, 28, 28);
    const core::BinaryNetwork bin(net, plan);

    const sc::simd::Level was_level = sc::simd::level();
    for (size_t d = 0; d < 10; ++d) {
        const nn::Tensor img = nn::DigitDataset::render(d, 7 + d);
        std::vector<double> simd_scores, scalar_scores;
        sc::simd::setLevel(sc::simd::supportedLevel());
        const size_t a = bin.predict(img, &simd_scores);
        sc::simd::setLevel(sc::simd::Level::Scalar);
        const size_t b = bin.predict(img, &scalar_scores);
        sc::simd::setLevel(was_level);
        EXPECT_EQ(a, b) << "digit=" << d;
        EXPECT_EQ(simd_scores, scalar_scores) << "digit=" << d;
    }
}

// ------------------------------------------------- quantizer contract

TEST(SignQuantize, TiesGoPositiveAndValuesCollapseToSigns)
{
    EXPECT_TRUE(nn::signQuantizeBit(0.0));
    EXPECT_TRUE(nn::signQuantizeBit(0.75));
    EXPECT_FALSE(nn::signQuantizeBit(-1e-9));
    EXPECT_EQ(nn::signQuantizeWeight(0.3), 1.0);
    EXPECT_EQ(nn::signQuantizeWeight(0.0), 1.0);
    EXPECT_EQ(nn::signQuantizeWeight(-2.5), -1.0);

    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 5);
    nn::signQuantizeNetwork(net);
    const auto stages = nn::outlineNetworkStages(net);
    for (const auto &st : stages) {
        nn::Layer &layer = net.layer(st.layer_index);
        ASSERT_NE(layer.weights(), nullptr);
        for (float w : *layer.weights())
            EXPECT_TRUE(w == 1.0f || w == -1.0f);
        for (float b : *layer.biases())
            EXPECT_TRUE(b == 1.0f || b == -1.0f);
    }
}

// ------------------------------------------------ fp-edges vs binary

TEST(BinaryNetworkTest, FullPrecisionEdgesKeepFloatEdgeArithmetic)
{
    // With fp edges the first conv stage and the output layer run the
    // trained float weights; the sign-quantized interior is shared.
    // Differential twin: both kernel families must still agree
    // exactly, and scores must be genuine float dot products (not the
    // integer 2m - n grid of the pure path).
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Average, 11);
    const nn::NetworkPlan plan = nn::deriveNetworkPlan(net, 1, 28, 28);
    core::BinaryNetwork::Options opts;
    opts.full_precision_edges = true;
    const core::BinaryNetwork fp(net, plan, opts);
    const core::BinaryNetwork pure(net, plan);
    EXPECT_TRUE(fp.fullPrecisionEdges());
    EXPECT_FALSE(pure.fullPrecisionEdges());

    for (size_t d = 0; d < 10; ++d) {
        const nn::Tensor img = nn::DigitDataset::render(d, 100 + d);
        std::vector<double> fused_scores, ref_scores;
        const size_t a =
            fp.predict(img, &fused_scores,
                       core::BinaryNetwork::Kernel::Fused);
        const size_t b =
            fp.predict(img, &ref_scores,
                       core::BinaryNetwork::Kernel::Reference);
        EXPECT_EQ(a, b) << "digit=" << d;
        EXPECT_EQ(fused_scores, ref_scores) << "digit=" << d;

        std::vector<double> pure_scores;
        pure.predict(img, &pure_scores);
        for (double s : pure_scores)
            EXPECT_EQ(s, static_cast<double>(static_cast<long long>(s)))
                << "pure-binary scores are integers";
    }
}

// -------------------------------------------------- engine dispatch

TEST(BinaryNetworkTest, EngineModeBinaryIsSeedInvariant)
{
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 21);
    core::ScNetworkConfig cfg;
    cfg.bitstream_len = 128;
    core::ScNetwork sc(net, cfg);
    sc.setEngineMode(core::EngineMode::Binary);

    const nn::Tensor img = nn::DigitDataset::render(4, 9);
    core::ForwardInfo a, b;
    EXPECT_EQ(sc.predict(img, 1, &a), sc.predict(img, 0xDEAD, &b));
    EXPECT_EQ(a.scores, b.scores);
    EXPECT_EQ(a.effective_bits, 1u);
    EXPECT_FALSE(a.early_exit);
    EXPECT_FALSE(a.cancelled);
}

TEST(BinaryNetworkTest, ForwardBatchIsThreadCountInvariantInBinaryMode)
{
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 23);
    core::ScNetworkConfig cfg;
    cfg.bitstream_len = 128;
    core::ScNetwork sc(net, cfg);

    std::vector<nn::Tensor> images;
    for (size_t i = 0; i < 6; ++i)
        images.push_back(nn::DigitDataset::render(i % 10, 40 + i));

    core::PredictOptions popts;
    popts.mode = core::EngineMode::Binary;

    ThreadPool one(1), four(4);
    std::vector<core::ForwardInfo> ia, ib;
    const auto a = sc.forwardBatch(images, 7, popts, &one, &ia);
    const auto b = sc.forwardBatch(images, 7, popts, &four, &ib);
    EXPECT_EQ(a, b);
    for (size_t i = 0; i < images.size(); ++i) {
        EXPECT_EQ(ia[i].scores, ib[i].scores) << "image=" << i;
        EXPECT_EQ(a[i], sc.binaryNet().predict(images[i]))
            << "image=" << i;
    }
}

} // namespace
} // namespace scdcnn
