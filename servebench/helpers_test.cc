/**
 * @file
 * Tests of the serving benchmark's own helpers: percentiles, seeded
 * inputs, open-loop due-time accounting and the host-speed correction,
 * the host probe, the correctness gate and span self time.
 */

#include <gtest/gtest.h>

#include "bench_lib.h"
#include "core/sc_config.h"
#include "nn/network.h"

namespace servebench {
namespace {

TEST(NearestRank, PicksObservedSamplesAndReportsTheCount)
{
    const std::vector<double> v = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
    const Percentile p50 = nearestRank(v, 50);
    EXPECT_EQ(p50.value, 5);
    EXPECT_EQ(p50.count, 10u);
    EXPECT_EQ(nearestRank(v, 90).value, 9);
    EXPECT_EQ(nearestRank(v, 91).value, 10);
    EXPECT_EQ(nearestRank(v, 100).value, 10);
    EXPECT_EQ(nearestRank(v, 0).value, 1);
    EXPECT_EQ(nearestRank({7}, 99).value, 7);
    const Percentile empty = nearestRank({}, 50);
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.value, 0);
}

TEST(Inputs, PoissonScheduleIsReproducibleAndHasTheRate)
{
    const std::vector<double> a = poissonSchedule(7, 70.0, 100.0, 5);
    EXPECT_EQ(a, poissonSchedule(7, 70.0, 100.0, 5));
    EXPECT_NE(a, poissonSchedule(8, 70.0, 100.0, 5));
    ASSERT_EQ(a.size(), 7000u);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_GE(a.front(), 0.0);
    EXPECT_LT(a.back(), 100.0);
    // Exactly rate * 20 s arrivals in each of the five strata.
    for (int k = 0; k < 5; ++k)
        EXPECT_EQ(std::count_if(a.begin(), a.end(),
                                [&](double t) {
                                    return t >= 20.0 * k &&
                                           t < 20.0 * (k + 1);
                                }),
                  1400);
    // Exponential gaps: mean 1/rate, and about e^-1 of them exceed it.
    size_t long_gaps = 0;
    for (size_t i = 1; i < a.size(); ++i)
        long_gaps += a[i] - a[i - 1] > 1.0 / 70.0;
    EXPECT_NEAR(static_cast<double>(long_gaps) / a.size(), 0.3679, 0.03);
}

TEST(Inputs, PixelNoiseIsReproducibleAndClamped)
{
    const LabelledImage a = makeImage(42, 0.25);
    const LabelledImage b = makeImage(42, 0.25);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.image.data(), b.image.data());
    const LabelledImage clean = makeImage(42, 0.0);
    EXPECT_EQ(clean.label, a.label);
    EXPECT_NE(clean.image.data(), a.image.data());
    for (float px : a.image.data()) {
        EXPECT_GE(px, 0.0f);
        EXPECT_LE(px, 1.0f);
    }
    EXPECT_NE(makeImage(43, 0.25).image.data(), a.image.data());
}

TEST(Inputs, ClassMixIsExactPerBlockAndSeeded)
{
    const ClassMix mix = {1, 2, 1};
    std::array<size_t, 3> seen{};
    std::vector<AccuracyClass> order;
    for (size_t i = 0; i < 400; ++i) {
        const AccuracyClass c = classFor(9, mix, i);
        ++seen[static_cast<size_t>(c)];
        order.push_back(c);
        EXPECT_EQ(c, classFor(9, mix, i));
    }
    EXPECT_EQ(seen[0], 100u);
    EXPECT_EQ(seen[1], 200u);
    EXPECT_EQ(seen[2], 100u);
    std::vector<AccuracyClass> other;
    for (size_t i = 0; i < 400; ++i)
        other.push_back(classFor(10, mix, i));
    EXPECT_NE(order, other);
    EXPECT_EQ(requestSpec(3, 1, 5, 256, mix).engine_seed,
              requestSpec(3, 1, 5, 256, mix).engine_seed);
    EXPECT_NE(requestSpec(3, 1, 5, 256, mix).engine_seed,
              requestSpec(3, 2, 5, 256, mix).engine_seed);
}

TEST(DueTimes, StalledGeneratorShowsAsLatencyAndLateness)
{
    // Requests due every 10 ms, each answered 5 ms after it is sent.
    // The generator stalls 50 ms before sending request 3, then sends
    // requests 3..5 at once.
    std::vector<DueTimes> reqs;
    for (int i = 0; i < 10; ++i) {
        const double due = 0.010 * i;
        double sent = due;
        if (i >= 3 && i <= 5)
            sent = 0.030 + 0.050;
        reqs.push_back({due, sent, sent + 0.005});
    }
    EXPECT_NEAR(reqs[3].latencyMs(), 55.0, 1e-9);
    EXPECT_NEAR(reqs[3].latenessMs(), 50.0, 1e-9);
    EXPECT_NEAR(reqs[5].latencyMs(), 35.0, 1e-9);
    const PhaseReport r = phaseReport({{reqs, 0.1, 1.0}}, false);
    EXPECT_NEAR(r.max_lateness_ms, 50.0, 1e-9);
    EXPECT_EQ(r.samples, 10u);
    EXPECT_NEAR(r.p90_ms, 45.0, 1e-9);
    EXPECT_NEAR(r.p50_ms, 5.0, 1e-9);
    EXPECT_NEAR(r.ips, 9 / 0.090, 1e-6);
}

TEST(DueTimes, HostSlowdownIsDividedOut)
{
    // 5 one-second intervals, 100 requests each answered in 10 ms, one
    // after the other; in interval 2 the host runs at half speed, which
    // the probe reports as slowdown 2: 20 ms answers, half as many.
    std::vector<IntervalTimes> ivs;
    for (int s = 0; s < 5; ++s) {
        const bool slow = s == 2;
        const int n = slow ? 50 : 100;
        const double svc = slow ? 0.020 : 0.010;
        IntervalTimes iv{{}, 1.0, slow ? 2.0 : 1.0};
        for (int i = 0; i < n; ++i) {
            const double due = 0.9 * (i + 0.5) / n;
            iv.reqs.push_back({due, due, due + svc});
        }
        ivs.push_back(iv);
    }
    const PhaseReport closed = phaseReport(ivs, true);
    EXPECT_NEAR(closed.p50_ms, 10.0, 1e-6);
    EXPECT_NEAR(closed.p90_ms, 10.0, 1e-6);
    EXPECT_NEAR(closed.raw_p50_ms, 10.0, 1e-6);
    EXPECT_NEAR(closed.raw_p90_ms, 20.0, 1e-6);
    EXPECT_EQ(closed.samples, 450u);
    EXPECT_EQ(closed.interval_samples, 50u);
    EXPECT_EQ(closed.slowdown, 1.0);
    // A closed loop's rate is capacity: the slow interval's rate times 2
    // equals the others', 100 answers over 0.891 s.
    const double rate = 99 / 0.891;
    EXPECT_NEAR(closed.ips, rate, 1e-6);
    EXPECT_NEAR(phaseReport({ivs[2]}, true).ips, 2 * 49 / 0.882, 1e-6);
    EXPECT_NEAR(phaseReport({ivs[2]}, true).raw_ips, 49 / 0.882, 1e-6);
    // An open loop's rate is what it offered, on any host.
    EXPECT_NEAR(phaseReport({ivs[2]}, false).ips, 49 / 0.882, 1e-6);
}

TEST(HostProbe, WorkIsFixed)
{
    EXPECT_EQ(probeWork(3), probeWork(3));
    EXPECT_NE(probeWork(3), probeWork(4));
}

TEST(Gate, CatchesAFlippedPrediction)
{
    const scdcnn::nn::Network trained =
        scdcnn::nn::buildMiniLeNet(scdcnn::nn::PoolingMode::Max, 3);
    scdcnn::core::ScNetworkConfig cfg;
    cfg.bitstream_len = 128;
    const ScNetwork net(trained, cfg);
    const LabelledImage li = makeImage(5, 0.0);
    PredictOptions opts;
    opts.mode = scdcnn::core::EngineMode::Fused;

    scdcnn::core::ForwardInfo info;
    InferenceResult r;
    r.seed = 77;
    r.predicted = net.predictWith(li.image, r.seed, opts, nullptr, &info);
    r.scores = info.scores;
    r.effective_bits = info.effective_bits;
    r.requested = r.served = AccuracyClass::High;
    auto gate = [&](const InferenceResult &served) {
        return gateMismatch(net, li.image, AccuracyClass::High, 77, opts,
                            served, 128);
    };
    EXPECT_EQ(gate(r), "");

    InferenceResult flipped = r;
    flipped.predicted = (r.predicted + 1) % 10;
    EXPECT_NE(gate(flipped), "");

    InferenceResult rescored = r;
    rescored.scores[0] += 1.0;
    EXPECT_NE(gate(rescored), "");

    InferenceResult degraded = r;
    degraded.served = AccuracyClass::Fast;
    EXPECT_NE(gate(degraded), "");

    // A server that ignored the explicit seed agrees with itself at the
    // seed it chose; the gate checks against the seed the request carried.
    InferenceResult reseeded = r;
    reseeded.seed = 78;
    reseeded.predicted =
        net.predictWith(li.image, reseeded.seed, opts, nullptr, &info);
    reseeded.scores = info.scores;
    EXPECT_NE(gate(reseeded), "");
    InferenceResult misreported = r;
    misreported.seed = 78;
    EXPECT_EQ(gate(misreported), "served seed differs from requested");

    InferenceResult overspent = r;
    overspent.effective_bits = 129;
    EXPECT_NE(gate(overspent), "");
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    std::vector<Span> spans = {
        {"phase", "bench", 0, 100, -1, -1},
        {"a", "serve", 10, 40, 0, 1},
        {"b", "serve", 30, 60, 0, 2}, // overlaps a
        {"c", "serve", 90, 120, 0, 3}, // runs past the parent
        {"k", "sc", 12, 20, 1, -1},
    };
    const auto self = selfTimeByLayer(spans);
    // phase: 100 - |[10,60] u [90,100]| = 100 - 60 = 40
    EXPECT_NEAR(self.at("bench"), 40.0, 1e-9);
    // serve: (30 - 8) + 30 + 30
    EXPECT_NEAR(self.at("serve"), 82.0, 1e-9);
    EXPECT_NEAR(self.at("sc"), 8.0, 1e-9);
}

} // namespace
} // namespace servebench
