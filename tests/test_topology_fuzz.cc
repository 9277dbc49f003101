/**
 * @file
 * Randomized-topology differential test: the engine must handle *any*
 * sequential conv/pool/fc topology the plan grammar admits, not just
 * the golden LeNet5 shape. For ~20 seeded random topologies (varying
 * conv depth, channel counts, kernel sizes, pooling modes, adder
 * kinds, fc widths, class counts and stream lengths) the fused
 * word-parallel engine must be bit-exact against the bit-serial
 * Reference oracle at every tested segment granularity, and the SC
 * output scores must track the float network's logits within a
 * tolerance set by the stream length. The binary XNOR-popcount
 * backend rides the same corpus with *exact* differentials: its fused
 * kernels against their bit-serial reference twins, and its scores
 * against an independent float sign-network oracle.
 *
 * SCDCNN_FUZZ_SEED (a small integer, default 0) offsets every seed in
 * the corpus — the CI fuzz lane runs a fixed matrix of offsets so the
 * same binaries sweep several disjoint corpora.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/binary_net.h"
#include "core/sc_network.h"
#include "nn/layers.h"
#include "nn/topology.h"
#include "sc/rng.h"

namespace scdcnn {
namespace {

/** Corpus offset from SCDCNN_FUZZ_SEED (0 when unset): shifts every
 *  topology and image seed so CI can sweep disjoint corpora with one
 *  binary. Failures reproduce from the printed case index plus the
 *  offset the lane exported. */
uint64_t
fuzzSeedOffset()
{
    static const uint64_t off = [] {
        const char *env = std::getenv("SCDCNN_FUZZ_SEED");
        return env != nullptr ? std::strtoull(env, nullptr, 10)
                              : uint64_t{0};
    }();
    return off;
}

struct FuzzTopology
{
    nn::TopologySpec spec;
    nn::PoolingMode pooling = nn::PoolingMode::Max;
    core::ScNetworkConfig cfg;
};

/** A random topology the plan grammar admits, derived entirely from
 *  the case seed so failures reproduce from the printed index. */
FuzzTopology
randomTopology(uint64_t case_idx)
{
    sc::Xoshiro256ss rng(0xF022 + fuzzSeedOffset() * 0x51ED +
                         case_idx * 7919);
    const auto pick = [&](size_t n) {
        return static_cast<size_t>(rng.nextBelow(n));
    };

    FuzzTopology t;
    t.spec.seed = 100 + case_idx + fuzzSeedOffset() * 1000;
    // Even input edges keep odd-kernel conv outputs 2x2-poolable.
    t.spec.in_h = t.spec.in_w = 12 + 2 * pick(5); // 12..20
    size_t h = t.spec.in_h;
    const size_t n_convs = pick(3); // 0..2
    for (size_t i = 0; i < n_convs; ++i) {
        // Odd kernels on even inputs keep the conv output poolable;
        // stop stacking once the pooled edge goes odd or too small.
        if (h % 2 != 0 || h < 4)
            break;
        const size_t k = (h >= 6 && pick(2) == 0) ? 5 : 3;
        t.spec.convs.push_back({2 + pick(7), k}); // 2..8 channels
        h = (h - k + 1) / 2;
    }
    const size_t n_fc = pick(3); // 0..2 hidden fc stages
    for (size_t i = 0; i < n_fc; ++i)
        t.spec.fc_hidden.push_back(6 + pick(20)); // 6..25 wide
    t.spec.n_classes = 4 + pick(7); // 4..10

    t.pooling = pick(2) == 0 ? nn::PoolingMode::Max
                             : nn::PoolingMode::Average;
    t.cfg.pooling = t.pooling;
    for (size_t g = 0; g < 3; ++g)
        t.cfg.layer_adders[g] = pick(2) == 0 ? core::AdderKind::Apc
                                             : core::AdderKind::Mux;
    const size_t lens[] = {128, 192, 200};
    t.cfg.bitstream_len = lens[pick(3)];
    t.cfg.input_c = 1;
    t.cfg.input_h = t.spec.in_h;
    t.cfg.input_w = t.spec.in_w;
    return t;
}

nn::Tensor
randomImage(size_t h, size_t w, uint64_t seed)
{
    sc::Xoshiro256ss rng(seed + fuzzSeedOffset() * 77777);
    nn::Tensor img(1, h, w);
    for (size_t i = 0; i < img.size(); ++i)
        img[i] = static_cast<float>(rng.nextDouble());
    return img;
}

/** Seeded biases in [-0.5, 0.5): built layers start with zero biases,
 *  which would leave an oracle's bias terms (and the SC engines'
 *  bias lines) unchecked. */
void
randomizeBiases(nn::Network &net, uint64_t seed)
{
    sc::Xoshiro256ss rng(seed + fuzzSeedOffset() * 131);
    for (const nn::StageOutline &o : nn::outlineNetworkStages(net))
        for (float &b : *net.layer(o.layer_index).biases())
            b = static_cast<float>(rng.nextDouble() - 0.5);
}

constexpr size_t kCases = 20;

TEST(TopologyFuzz, FusedMatchesReferenceAtEverySegmentSize)
{
    for (uint64_t c = 0; c < kCases; ++c) {
        FuzzTopology t = randomTopology(c);
        nn::Network net = nn::buildTopology(t.spec, t.pooling);
        randomizeBiases(net, 30 + c);
        const nn::Tensor img =
            randomImage(t.spec.in_h, t.spec.in_w, 500 + c);
        const uint64_t seed = 9000 + c;

        core::ScNetworkConfig cfg = t.cfg;
        core::ScNetwork ref_net(net, cfg);
        ref_net.setEngineMode(core::EngineMode::Reference);
        core::ForwardInfo ref;
        const size_t ref_pred = ref_net.predict(img, seed, &ref);
        ASSERT_LT(ref_pred, t.spec.n_classes) << "case=" << c;

        // 1-word, 3-word (does not divide 128/192-bit streams evenly
        // against the 4-word default) and whole-stream granularity.
        // Segmented runs go through Progressive at a margin no image
        // reaches, which equals Fused; plain Fused runs whole streams.
        for (size_t seg_words : {size_t{1}, size_t{3}, size_t{0}}) {
            cfg.stream_segment_words = seg_words;
            cfg.progressive_margin = 1e9;
            core::ScNetwork fused(net, cfg);
            if (seg_words != 0)
                fused.setEngineMode(core::EngineMode::Progressive);
            core::ForwardInfo info;
            EXPECT_EQ(fused.predict(img, seed, &info), ref_pred)
                << "case=" << c << " seg_words=" << seg_words;
            EXPECT_EQ(info.scores, ref.scores)
                << "case=" << c << " seg_words=" << seg_words;
            EXPECT_EQ(info.effective_bits, cfg.bitstream_len)
                << "case=" << c << " seg_words=" << seg_words;
        }
    }
}

TEST(TopologyFuzz, ScScoresTrackTheFloatLogits)
{
    // The SC output-layer score is the bipolar sum the binary stage
    // accumulates: an estimate of the float network's logits (up to
    // quantization, FSM-activation approximation, MUX down-scaling
    // residue and stream sampling noise). The output stage sums
    // fan_in independent 1-bit product estimators over L cycles, so
    // its noise floor grows like sqrt(fan_in / L); the tolerance is a
    // few of those (and never below an O(1) floor for the hidden-stage
    // approximation error). Deterministic seeds make this a regression
    // bound, and it would still catch a wrong fan-in, dropped bias or
    // broken gain chain immediately: those shift scores by O(fan_in).
    double worst = 0.0;
    for (uint64_t c = 0; c < kCases; ++c) {
        FuzzTopology t = randomTopology(c);
        nn::Network net = nn::buildTopology(t.spec, t.pooling);
        const nn::Tensor img =
            randomImage(t.spec.in_h, t.spec.in_w, 500 + c);

        nn::Network float_net = net;
        const nn::Tensor logits = float_net.forward(img);

        core::ScNetwork sc(net, t.cfg);
        core::ForwardInfo info;
        sc.predict(img, 9000 + c, &info);
        ASSERT_EQ(info.scores.size(), logits.size()) << "case=" << c;

        const double noise_scale = std::sqrt(
            static_cast<double>(sc.plan().output.fan_in) /
            static_cast<double>(t.cfg.bitstream_len));
        const double tol = 6.0 * std::max(1.0, noise_scale);
        double max_dev = 0.0;
        for (size_t o = 0; o < logits.size(); ++o)
            max_dev = std::max(
                max_dev, std::abs(info.scores[o] -
                                  static_cast<double>(logits[o])));
        EXPECT_LT(max_dev, tol) << "case=" << c;
        worst = std::max(worst, max_dev);
    }
    // Sanity on the harness itself: the scores are not all-zero
    // artifacts — at least one case must show a real, non-trivial
    // deviation pattern under the SC noise floor.
    EXPECT_GT(worst, 0.0);
}

TEST(TopologyFuzz, BatchMatchesSinglesOnEveryRandomTopology)
{
    // A multi-image batch through the weight-stationary kernels must
    // be bit-exact with one-image calls of the same driver on *every*
    // topology the grammar admits, not just LeNet shapes — conv-free
    // MLPs, MUX layers, average pooling and odd stream lengths all
    // route through it. Rotate the segment granularity across cases
    // so whole-stream (plain Fused), single-word and grid-misaligned
    // carries (Progressive at a margin no image reaches) all run.
    ThreadPool one(1);
    for (uint64_t c = 0; c < kCases; ++c) {
        FuzzTopology t = randomTopology(c);
        nn::Network net = nn::buildTopology(t.spec, t.pooling);
        randomizeBiases(net, 50 + c);
        core::ScNetworkConfig cfg = t.cfg;
        const size_t seg_rotation[] = {0, 1, 3};
        cfg.stream_segment_words = seg_rotation[c % 3];
        core::ScNetwork sc(net, cfg);

        std::vector<nn::Tensor> images;
        for (size_t i = 0; i < 3; ++i)
            images.push_back(
                randomImage(t.spec.in_h, t.spec.in_w, 800 + c * 10 + i));

        core::PredictOptions opts;
        if (cfg.stream_segment_words != 0) {
            opts.mode = core::EngineMode::Progressive;
            opts.progressive_margin = 1e9;
        }
        std::vector<core::ForwardInfo> bi;
        const auto b = sc.forwardBatch(images, 9000 + c, opts, &one, &bi);
        ASSERT_EQ(bi.size(), images.size()) << "case=" << c;
        for (size_t i = 0; i < images.size(); ++i) {
            core::ForwardInfo si;
            EXPECT_EQ(sc.predictWith(images[i], 9000 + c + i * 7919, opts,
                                     &si),
                      b[i])
                << "case=" << c << " image=" << i;
            EXPECT_EQ(bi[i].scores, si.scores)
                << "case=" << c << " image=" << i;
            EXPECT_EQ(bi[i].effective_bits, si.effective_bits)
                << "case=" << c << " image=" << i;
        }
    }
}

// --------------------------------------------- binary backend corpus

double
signOf(double v)
{
    return v >= 0.0 ? 1.0 : -1.0;
}

/**
 * Independent float oracle of the binary backend's contract: +-1
 * activations as doubles, sign-of-weight multiplies, bias as a last
 * +-1 term, pooling on the four window pre-activations (max keeps the
 * max, average keeps the sum), sign activation with ties to +1. Every
 * intermediate value is a small integer, so double arithmetic is
 * exact and the comparison against the backend is equality, not
 * tolerance.
 *
 * With @p full_precision_edges the network's first stage (a hidden
 * stage, or the output layer when there is none) multiplies the
 * trained float weights by the raw pixels, and the output layer
 * multiplies its trained float weights by the +-1 activations. Each
 * sum accumulates in (ci, ky, kx) / input order in double, then adds
 * the float bias; pooling and the sign keep their binary rules. That
 * arithmetic is the option's contract, so the comparison stays exact.
 */
std::vector<double>
floatSignOracle(const nn::Network &net, const nn::NetworkPlan &plan,
                nn::PoolingMode pooling, const nn::Tensor &img,
                bool full_precision_edges = false)
{
    // Input binarization: pixel bit = (x >= 0.5), bipolar value +-1;
    // a full-precision first stage reads the raw pixels instead.
    size_t h = plan.in_h, w = plan.in_w;
    std::vector<double> act(img.size());
    for (size_t i = 0; i < img.size(); ++i)
        act[i] = full_precision_edges ? static_cast<double>(img[i])
                 : img[i] >= 0.5f     ? 1.0
                                      : -1.0;
    // Stage l's parameters: trained floats on a full-precision edge
    // (the first stage, and the output layer at l == stages.size()),
    // their signs everywhere else.
    const auto param = [&](float v, size_t l) {
        const bool fp = full_precision_edges &&
                        (l == 0 || l == plan.stages.size());
        return fp ? static_cast<double>(v) : signOf(v);
    };

    size_t l = 0;
    for (; l < plan.convCount(); ++l) {
        const nn::PlanStage &st = plan.stages[l];
        const auto &conv = dynamic_cast<const nn::ConvLayer &>(
            net.layer(st.layer_index));
        const size_t k = conv.kernel();
        std::vector<double> next(st.flatOut());
        for (size_t co = 0; co < st.out_c; ++co)
            for (size_t oy = 0; oy < st.out_h; ++oy)
                for (size_t ox = 0; ox < st.out_w; ++ox) {
                    double pooled = 0.0;
                    for (size_t widx = 0; widx < 4; ++widx) {
                        const size_t cy = 2 * oy + widx / 2;
                        const size_t cx = 2 * ox + widx % 2;
                        double s = 0.0;
                        for (size_t ci = 0; ci < st.in_c; ++ci)
                            for (size_t ky = 0; ky < k; ++ky)
                                for (size_t kx = 0; kx < k; ++kx)
                                    s += param(conv.weightAt(co, ci, ky,
                                                             kx),
                                               l) *
                                         act[(ci * h + cy + ky) * w +
                                             cx + kx];
                        s += param(conv.biasAt(co), l);
                        if (widx == 0)
                            pooled = s;
                        else if (pooling == nn::PoolingMode::Max)
                            pooled = std::max(pooled, s);
                        else
                            pooled += s;
                    }
                    next[(co * st.out_h + oy) * st.out_w + ox] =
                        pooled >= 0.0 ? 1.0 : -1.0;
                }
        act = std::move(next);
        h = st.out_h;
        w = st.out_w;
    }

    for (; l < plan.stages.size(); ++l) {
        const nn::PlanStage &st = plan.stages[l];
        const auto &fc = dynamic_cast<const nn::FullyConnected &>(
            net.layer(st.layer_index));
        std::vector<double> next(fc.nOut());
        for (size_t o = 0; o < fc.nOut(); ++o) {
            double s = 0.0;
            for (size_t i = 0; i < fc.nIn(); ++i)
                s += param(fc.weightAt(o, i), l) * act[i];
            s += param(fc.biasAt(o), l);
            next[o] = s >= 0.0 ? 1.0 : -1.0;
        }
        act = std::move(next);
    }

    const auto &out = dynamic_cast<const nn::FullyConnected &>(
        net.layer(plan.output.layer_index));
    std::vector<double> scores(out.nOut());
    for (size_t o = 0; o < out.nOut(); ++o) {
        double s = 0.0;
        for (size_t i = 0; i < out.nIn(); ++i)
            s += param(out.weightAt(o, i), l) * act[i];
        scores[o] = s + param(out.biasAt(o), l);
    }
    return scores;
}

TEST(TopologyFuzz, BinaryMatchesItsBitSerialReferenceTwin)
{
    // The binary backend's fused word-parallel kernels (XNOR-popcount
    // inner product, sign pack, window pooling) against their
    // bit-serial reference twins, end to end, on every corpus
    // topology. Deterministic, so the differential is exact equality.
    for (uint64_t c = 0; c < kCases; ++c) {
        FuzzTopology t = randomTopology(c);
        nn::Network net = nn::buildTopology(t.spec, t.pooling);
        const nn::NetworkPlan plan = nn::deriveNetworkPlan(
            net, 1, t.spec.in_h, t.spec.in_w);
        const core::BinaryNetwork bin(net, plan);

        for (size_t i = 0; i < 3; ++i) {
            const nn::Tensor img = randomImage(
                t.spec.in_h, t.spec.in_w, 600 + c * 10 + i);
            std::vector<double> fused_scores, ref_scores;
            const size_t fused_pred =
                bin.predict(img, &fused_scores,
                            core::BinaryNetwork::Kernel::Fused);
            const size_t ref_pred =
                bin.predict(img, &ref_scores,
                            core::BinaryNetwork::Kernel::Reference);
            EXPECT_EQ(fused_pred, ref_pred)
                << "case=" << c << " image=" << i;
            EXPECT_EQ(fused_scores, ref_scores)
                << "case=" << c << " image=" << i;
        }
    }
}

TEST(TopologyFuzz, BinaryScoresMatchTheFloatSignNetOracle)
{
    // The whole packed-word pipeline (bit packing, interleaved weight
    // blocks, popcount kernels, masked pooling) against a plain float
    // implementation of the same sign-quantization contract — exact
    // equality on every topology, both standalone and dispatched
    // through EngineMode::Binary on the SC engine.
    for (uint64_t c = 0; c < kCases; ++c) {
        FuzzTopology t = randomTopology(c);
        nn::Network net = nn::buildTopology(t.spec, t.pooling);
        core::ScNetwork sc(net, t.cfg);

        const nn::Tensor img =
            randomImage(t.spec.in_h, t.spec.in_w, 500 + c);
        const std::vector<double> oracle =
            floatSignOracle(net, sc.plan(), t.pooling, img);

        std::vector<double> scores;
        const size_t pred = sc.binaryNet().predict(img, &scores);
        ASSERT_EQ(scores.size(), oracle.size()) << "case=" << c;
        EXPECT_EQ(scores, oracle) << "case=" << c;
        EXPECT_EQ(pred,
                  static_cast<size_t>(std::distance(
                      oracle.begin(),
                      std::max_element(oracle.begin(), oracle.end()))))
            << "case=" << c;

        // Engine dispatch: EngineMode::Binary must hand back exactly
        // the backend's result (seeds are ignored — vary one to pin
        // the determinism down).
        core::PredictOptions popts;
        popts.mode = core::EngineMode::Binary;
        core::ForwardInfo info;
        EXPECT_EQ(sc.predictWith(img, 123 + c, popts, &info),
                  pred)
            << "case=" << c;
        EXPECT_EQ(info.scores, oracle) << "case=" << c;
        EXPECT_EQ(info.effective_bits, 1u) << "case=" << c;
        EXPECT_FALSE(info.early_exit) << "case=" << c;
    }
}

TEST(TopologyFuzz, BinaryFullPrecisionEdgesMatchTheFloatOracle)
{
    // The full-precision-edges option against the oracle's statement
    // of its arithmetic, on every topology and for both kernel
    // families. The float dot products have no kernel twin, so
    // Fused == Reference alone would not pin them.
    core::BinaryNetwork::Options opts;
    opts.full_precision_edges = true;
    for (uint64_t c = 0; c < kCases; ++c) {
        FuzzTopology t = randomTopology(c);
        nn::Network net = nn::buildTopology(t.spec, t.pooling);
        randomizeBiases(net, 70 + c);
        const nn::NetworkPlan plan = nn::deriveNetworkPlan(
            net, 1, t.spec.in_h, t.spec.in_w);
        const core::BinaryNetwork bin(net, plan, opts);

        for (size_t i = 0; i < 3; ++i) {
            const nn::Tensor img = randomImage(
                t.spec.in_h, t.spec.in_w, 800 + c * 10 + i);
            const std::vector<double> oracle =
                floatSignOracle(net, plan, t.pooling, img, true);
            const size_t best = static_cast<size_t>(std::distance(
                oracle.begin(),
                std::max_element(oracle.begin(), oracle.end())));
            for (auto kernel : {core::BinaryNetwork::Kernel::Fused,
                                core::BinaryNetwork::Kernel::Reference}) {
                std::vector<double> scores;
                EXPECT_EQ(bin.predict(img, &scores, kernel), best)
                    << "case=" << c << " image=" << i;
                EXPECT_EQ(scores, oracle)
                    << "case=" << c << " image=" << i;
            }
        }
    }
}

TEST(TopologyFuzz, BinaryWideInputsMatchTheFloatSignNetOracle)
{
    // Grids wider than one 64-bit word: an MLP over 4x80 pixels, a
    // conv net over 12x66, and a conv stage whose pooled rows are 66
    // wide. The SC engine constructs over each (its binary sibling is
    // built with it), and the binary scores, pure and with
    // full-precision edges, equal the oracle's.
    nn::TopologySpec mlp;
    mlp.in_h = 4;
    mlp.in_w = 80;
    mlp.fc_hidden = {16};
    mlp.n_classes = 5;
    nn::TopologySpec conv;
    conv.in_h = 12;
    conv.in_w = 66;
    conv.convs = {{3, 3}};
    conv.fc_hidden = {8};
    conv.n_classes = 4;
    nn::TopologySpec wide_rows;
    wide_rows.in_h = 6;
    wide_rows.in_w = 134;
    wide_rows.convs = {{4, 3}};
    wide_rows.n_classes = 6;
    core::BinaryNetwork::Options fp_opts;
    fp_opts.full_precision_edges = true;

    size_t n = 0;
    for (nn::TopologySpec spec : {mlp, conv, wide_rows}) {
        spec.seed = 40 + n;
        nn::Network net = nn::buildTopology(spec, nn::PoolingMode::Max);
        randomizeBiases(net, 90 + n);
        core::ScNetworkConfig cfg;
        cfg.bitstream_len = 64;
        cfg.input_c = spec.in_c;
        cfg.input_h = spec.in_h;
        cfg.input_w = spec.in_w;
        const core::ScNetwork sc(net, cfg);
        const core::BinaryNetwork fp(net, sc.plan(), fp_opts);

        for (size_t i = 0; i < 3; ++i) {
            const nn::Tensor img =
                randomImage(spec.in_h, spec.in_w, 900 + n * 10 + i);
            std::vector<double> scores;
            sc.binaryNet().predict(img, &scores);
            EXPECT_EQ(scores, floatSignOracle(net, sc.plan(),
                                              nn::PoolingMode::Max, img))
                << "shape=" << n << " image=" << i;
            for (auto kernel : {core::BinaryNetwork::Kernel::Fused,
                                core::BinaryNetwork::Kernel::Reference}) {
                fp.predict(img, &scores, kernel);
                EXPECT_EQ(scores,
                          floatSignOracle(net, sc.plan(),
                                          nn::PoolingMode::Max, img, true))
                    << "shape=" << n << " image=" << i << " (fp edges)";
            }
        }
        ++n;
    }
}

TEST(TopologyFuzz, BinaryForwardBatchIsThreadCountInvariant)
{
    // Binary batches take the backend's deterministic per-image
    // fan-out (never the SC driver), so predictions and scores are
    // invariant to the thread-pool size and to batching at all.
    FuzzTopology t = randomTopology(5);
    nn::Network net = nn::buildTopology(t.spec, t.pooling);
    core::ScNetwork sc(net, t.cfg);

    std::vector<nn::Tensor> images;
    for (size_t i = 0; i < 5; ++i)
        images.push_back(
            randomImage(t.spec.in_h, t.spec.in_w, 300 + i));

    core::PredictOptions popts;
    popts.mode = core::EngineMode::Binary;

    ThreadPool one(1), three(3);
    std::vector<core::ForwardInfo> ia, ib;
    const auto a = sc.forwardBatch(images, 42, popts, &one, &ia);
    const auto b = sc.forwardBatch(images, 42, popts, &three, &ib);
    EXPECT_EQ(a, b);
    for (size_t i = 0; i < images.size(); ++i) {
        EXPECT_EQ(ia[i].scores, ib[i].scores) << "image=" << i;
        std::vector<double> direct;
        EXPECT_EQ(a[i], sc.binaryNet().predict(images[i], &direct))
            << "image=" << i;
        EXPECT_EQ(ia[i].scores, direct) << "image=" << i;
    }
}

TEST(TopologyFuzz, BatchedForwardIsThreadCountInvariantOffLeNet)
{
    // forwardBatch on a non-LeNet topology: predictions must be
    // identical for any pool size and must match per-image predict()
    // at the batch seed schedule (seed + i * 7919).
    FuzzTopology t = randomTopology(3);
    nn::Network net = nn::buildTopology(t.spec, t.pooling);
    core::ScNetwork sc(net, t.cfg);

    std::vector<nn::Tensor> images;
    for (size_t i = 0; i < 5; ++i)
        images.push_back(
            randomImage(t.spec.in_h, t.spec.in_w, 700 + i));

    ThreadPool one(1), three(3);
    const auto a = sc.forwardBatch(images, 42, &one);
    const auto b = sc.forwardBatch(images, 42, &three);
    EXPECT_EQ(a, b);
    for (size_t i = 0; i < images.size(); ++i)
        EXPECT_EQ(a[i], sc.predict(images[i], 42 + i * 7919))
            << "image=" << i;
}

} // namespace
} // namespace scdcnn
