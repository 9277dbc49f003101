/**
 * @file
 * Overload-robustness chaos suite: bounded admission (queue-full
 * rejection, typed errors), deadline-aware load shedding, cooperative
 * mid-stream cancellation (bit-exactness of batch-mates), and the
 * fault-injection harness — worker stalls, suppressed scheduler
 * polls, slow batches, queue-full bursts, clock skew — all driven
 * deterministically (ManualClock / shot-counted faults), proving the
 * server degrades gracefully instead of wedging or leaking futures.
 */

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/sc_network.h"
#include "nn/dataset.h"
#include "nn/network.h"
#include "nn/topology.h"
#include "serve/clock.h"
#include "serve/fault_injection.h"
#include "serve/metrics.h"
#include "serve/request_queue.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "worker_hold.h"

namespace scdcnn {
namespace {

using namespace std::chrono_literals;
using serve::AccuracyClass;
using serve::AdmitResult;
using serve::BatchScheduler;
using serve::FaultInjector;
using serve::FaultPoint;
using serve::ManualClock;
using serve::SchedulerLimits;
using serve::ServeError;
using serve::ServeErrorCode;

SchedulerLimits
limits(size_t max_batch, std::chrono::microseconds delay)
{
    SchedulerLimits l;
    l.max_batch = max_batch;
    l.max_queue_delay = delay;
    return l;
}

/** Small, fast engine shared by the server-level chaos tests. */
struct OverloadFixture
{
    nn::Network net = nn::buildLeNet5(nn::PoolingMode::Max, 1);
    core::ScNetworkConfig cfg;
    std::unique_ptr<core::ScNetwork> sc;

    explicit OverloadFixture(size_t len = 128, size_t seg_words = 1)
    {
        cfg.bitstream_len = len;
        cfg.stream_segment_words = seg_words;
        sc = std::make_unique<core::ScNetwork>(net, cfg);
    }
};

/** Cancel signal that trips after a fixed number of polls — lets a
 *  test cancel mid-stream, not just before the first boundary. */
struct CancelAfterPolls final : core::CancelSignal
{
    explicit CancelAfterPolls(int after) : after_(after) {}

    bool cancelled() const override
    {
        return polls_.fetch_add(1) >= after_;
    }

    int after_;
    mutable std::atomic<int> polls_{0};
};

// ----------------------------------------------- fault injector unit

TEST(FaultInjector, ShotCountingAndPluggableStall)
{
    FaultInjector fi;
    std::atomic<int> stalls{0};
    std::atomic<long> stalled_us{0};
    fi.setStallFn([&](std::chrono::microseconds d) {
        stalls.fetch_add(1);
        stalled_us.fetch_add(d.count());
    });

    fi.arm(FaultPoint::WorkerPop, 2, 5ms);
    EXPECT_EQ(fi.armedCount(FaultPoint::WorkerPop), 2u);
    EXPECT_TRUE(fi.fire(FaultPoint::WorkerPop));
    EXPECT_TRUE(fi.fire(FaultPoint::WorkerPop));
    EXPECT_FALSE(fi.fire(FaultPoint::WorkerPop)); // shots consumed
    EXPECT_EQ(fi.firedCount(FaultPoint::WorkerPop), 2u);
    EXPECT_EQ(stalls.load(), 2);
    EXPECT_EQ(stalled_us.load(), 10000);

    // Other points are independent and disarm drops pending shots.
    EXPECT_FALSE(fi.fire(FaultPoint::QueueAdmit));
    fi.arm(FaultPoint::QueueAdmit, 5);
    fi.disarm(FaultPoint::QueueAdmit);
    EXPECT_FALSE(fi.fire(FaultPoint::QueueAdmit));
    EXPECT_EQ(fi.firedCount(FaultPoint::QueueAdmit), 0u);

    // Zero-duration shots never invoke the stall function.
    fi.arm(FaultPoint::SchedulerPoll, 1);
    EXPECT_TRUE(fi.fire(FaultPoint::SchedulerPoll));
    EXPECT_EQ(stalls.load(), 2);
}

TEST(SkewedClock, OffsetsBaseReadings)
{
    ManualClock base;
    serve::SkewedClock skewed(&base);
    EXPECT_EQ(skewed.now(), base.now());
    skewed.setSkew(250ms);
    EXPECT_EQ(skewed.now(), base.now() + 250ms);
    base.advance(1s);
    EXPECT_EQ(skewed.now(), base.now() + 250ms);
    skewed.setSkew(-1s);
    EXPECT_EQ(skewed.now(), base.now() - 1s);
}

// -------------------------------------------- scheduler-level chaos

TEST(BatchScheduler, SweepDoomedDropsUnmeetableDeadlines)
{
    ManualClock clock;
    BatchScheduler s(limits(8, 1ms));
    s.setServiceEstimate(AccuracyClass::Fast, 4ms);
    const auto t = clock.now();

    s.push(1, AccuracyClass::Fast, t, t + 2ms);      // doomed: 2 < 4
    s.push(2, AccuracyClass::High, t, t + 2ms);      // doomed too
    s.push(3, AccuracyClass::Balanced, t, t + 10ms); // still feasible
    s.push(4, AccuracyClass::Balanced, t, std::nullopt); // no deadline

    const std::vector<uint64_t> shed = s.sweepDoomed(t);
    ASSERT_EQ(shed.size(), 2u);
    // Cheapest class sweeps first: the Fast request leads, High last.
    EXPECT_EQ(shed[0], 1u);
    EXPECT_EQ(shed[1], 2u);
    EXPECT_EQ(s.depth(), 2u);

    // Advancing past the feasible deadline dooms it as well.
    EXPECT_EQ(s.sweepDoomed(t + 7ms).size(), 1u);
    EXPECT_EQ(s.depth(), 1u);
}

TEST(BatchScheduler, SweepDoomedIsSwitchable)
{
    ManualClock clock;
    SchedulerLimits l = limits(8, 1ms);
    l.shed_doomed = false;
    BatchScheduler s(l);
    const auto t = clock.now();
    s.push(1, AccuracyClass::Fast, t, t - 1ms); // already past due
    EXPECT_TRUE(s.sweepDoomed(t).empty());
    EXPECT_EQ(s.depth(), 1u);
}

TEST(BatchScheduler, PollFaultSuppressesOneCloseDecision)
{
    ManualClock clock;
    FaultInjector fi;
    BatchScheduler s(limits(2, 1ms));
    s.setFaultInjector(&fi);
    const auto t = clock.now();
    s.push(1, AccuracyClass::Balanced, t, std::nullopt);
    s.push(2, AccuracyClass::Balanced, t, std::nullopt); // full

    fi.arm(FaultPoint::SchedulerPoll, 1);
    EXPECT_FALSE(s.poll(t).has_value()); // close suppressed
    const auto plan = s.poll(t);         // next poll recovers
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->ids.size(), 2u);
    EXPECT_EQ(fi.firedCount(FaultPoint::SchedulerPoll), 1u);
}

// ------------------------------------------------ queue-level chaos

TEST(RequestQueue, AdmissionBoundIsPerClass)
{
    ManualClock clock;
    SchedulerLimits l = limits(8, 1h);
    l.max_queue_per_class = 2;
    serve::RequestQueue q(l, &clock);

    auto mk = [&](uint64_t id, AccuracyClass cls) {
        serve::PendingRequest r;
        r.id = id;
        r.opts.accuracy = cls;
        r.submitted = clock.now();
        return r;
    };
    EXPECT_EQ(q.push(mk(1, AccuracyClass::Balanced)),
              AdmitResult::Accepted);
    EXPECT_EQ(q.push(mk(2, AccuracyClass::Balanced)),
              AdmitResult::Accepted);
    // Balanced is at capacity; High still has room — the bound is a
    // per-class budget, not a global one.
    EXPECT_EQ(q.push(mk(3, AccuracyClass::Balanced)),
              AdmitResult::QueueFull);
    EXPECT_EQ(q.push(mk(4, AccuracyClass::High)),
              AdmitResult::Accepted);
    EXPECT_EQ(q.depth(), 3u);
}

TEST(RequestQueue, PopReturnsShedPayloadsBeforeBatches)
{
    ManualClock clock;
    serve::RequestQueue q(limits(8, 2ms), &clock);
    serve::PendingRequest r;
    r.id = 7;
    r.submitted = clock.now();
    r.deadline = clock.now() + 5ms;
    ASSERT_EQ(q.push(std::move(r)), AdmitResult::Accepted);

    clock.advance(10ms); // past the deadline: doomed
    serve::PopOutcome out = q.popBatch();
    EXPECT_FALSE(out.batch.has_value());
    EXPECT_FALSE(out.closed);
    ASSERT_EQ(out.shed.size(), 1u);
    EXPECT_EQ(out.shed[0].id, 7u);
    EXPECT_EQ(q.depth(), 0u);
}

// ------------------------------------- core cancellation bit-exact

/** Progressive options that never early-exit: a run that stops short
 *  of the full stream was stopped by cancellation. */
core::PredictOptions
progressiveNoExit()
{
    core::PredictOptions opts;
    opts.mode = core::EngineMode::Progressive;
    opts.progressive_margin = 1e9;
    opts.progressive_min_bits = 0;
    return opts;
}

/** One image, cancelled at the second segment boundary, must stop
 *  there (128 of 256 bits on the 1-word grid); without the signal it
 *  runs the whole stream. */
void
expectSingleImageStopsAtSegmentBoundary(core::PredictOptions opts)
{
    OverloadFixture fx(256, 1); // 4 words, boundaries after 1..3
    const nn::Tensor img = nn::DigitDataset::render(3, 11);
    core::ForwardInfo ref;
    fx.sc->predictWith(img, 99, opts, &ref);
    EXPECT_FALSE(ref.cancelled);
    EXPECT_EQ(ref.effective_bits, 256u);

    CancelAfterPolls sig(1); // trip at the second boundary
    opts.cancel = &sig;
    core::ForwardInfo info;
    fx.sc->predictWith(img, 99, opts, &info);
    EXPECT_TRUE(info.cancelled);
    EXPECT_FALSE(info.early_exit);
    EXPECT_EQ(info.effective_bits, 128u); // stopped after 2 segments
}

/** Image 2 of a B=4 batch, cancelled at the second segment boundary,
 *  must stop there while its batch-mates stay bit-exact with an
 *  uncancelled run of the same batch. */
void
expectBatchMatesBitExactWhenOneImageCancels(const core::PredictOptions &opts)
{
    OverloadFixture fx(256, 1);
    std::vector<nn::Tensor> images;
    std::vector<uint64_t> seeds;
    for (size_t i = 0; i < 4; ++i) {
        images.push_back(nn::DigitDataset::render(i, 5 + i));
        seeds.push_back(1000 + i);
    }

    std::vector<core::ForwardInfo> ref;
    const std::vector<size_t> ref_preds =
        fx.sc->forwardBatch(images, seeds, opts, nullptr, &ref);

    CancelAfterPolls sig(1);
    std::vector<const core::CancelSignal *> cancels = {
        nullptr, nullptr, &sig, nullptr};
    std::vector<core::ForwardInfo> infos;
    const std::vector<size_t> preds = fx.sc->forwardBatch(
        images, seeds, opts, nullptr, &infos, &cancels);

    EXPECT_TRUE(infos[2].cancelled);
    EXPECT_EQ(infos[2].effective_bits, 128u);
    for (size_t i : {size_t{0}, size_t{1}, size_t{3}}) {
        // A cancelled batch-mate must leave the survivors' streams
        // untouched: identical scores, bits and predictions.
        EXPECT_FALSE(infos[i].cancelled);
        EXPECT_EQ(preds[i], ref_preds[i]);
        EXPECT_EQ(infos[i].effective_bits, ref[i].effective_bits);
        EXPECT_EQ(infos[i].scores, ref[i].scores);
    }
}

TEST(Cancellation, SingleImageStopsAtSegmentBoundary)
{
    expectSingleImageStopsAtSegmentBoundary(progressiveNoExit());
}

TEST(Cancellation, BatchMatesAreBitExactWhenOneImageCancels)
{
    expectBatchMatesBitExactWhenOneImageCancels(progressiveNoExit());
}

// Fused calls run whole-stream by default; a cancel signal puts them on
// the checkpoint grid so an in-flight cancellation still takes effect
// at the next boundary, for a lone image and inside a batch alike.

TEST(Cancellation, FusedSingleImageStopsAtSegmentBoundary)
{
    expectSingleImageStopsAtSegmentBoundary(core::PredictOptions{});
}

TEST(Cancellation, FusedBatchMatesAreBitExactWhenOneImageCancels)
{
    expectBatchMatesBitExactWhenOneImageCancels(core::PredictOptions{});
}

TEST(Cancellation, TokenTripsExplicitlyAndOnArmedDeadline)
{
    serve::CancelToken tok;
    EXPECT_FALSE(tok.cancelled());
    tok.cancel();
    EXPECT_TRUE(tok.cancelled());

    ManualClock clock;
    serve::CancelToken armed;
    armed.armDeadline(&clock, clock.now() + 10ms);
    EXPECT_FALSE(armed.cancelled());
    clock.advance(20ms);
    EXPECT_TRUE(armed.cancelled());
}

// ----------------------------------------------- server-level chaos

TEST(OverloadServer, QueueFullBurstRejectsWithTypedError)
{
    OverloadFixture fx;
    FaultInjector fi;
    serve::ServerConfig scfg;
    scfg.limits = limits(4, 500us);
    scfg.faults = &fi;
    serve::InferenceServer server(*fx.sc, scfg);

    fi.arm(FaultPoint::QueueAdmit, 2);
    for (int i = 0; i < 2; ++i) {
        auto fut = server.submit(nn::DigitDataset::render(1, 2));
        try {
            fut.get();
            FAIL() << "queue-full burst should reject";
        } catch (const ServeError &e) {
            EXPECT_EQ(e.code(), ServeErrorCode::QueueFull);
        }
    }
    // The burst over, admission recovers.
    auto ok = server.submit(nn::DigitDataset::render(2, 3));
    server.drain();
    EXPECT_NO_THROW(ok.get());

    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.rejected, 2u);
    EXPECT_EQ(snap.rejected_queue_full, 2u);
    EXPECT_EQ(snap.completed, 1u);
    EXPECT_EQ(server.outstanding(), 0u);
}

TEST(OverloadServer, DoomedRequestsAreShedBeforeCompute)
{
    OverloadFixture fx;
    ManualClock clock;
    WorkerHold hold;
    serve::ServerConfig scfg;
    scfg.limits = limits(8, 2ms);
    scfg.faults = &hold.faults;
    serve::InferenceServer server(*fx.sc, scfg, &clock);

    // An undeadlined blocker holds the one worker, so the deadlined
    // requests queue behind it.
    auto blocker = server.submit(nn::DigitDataset::render(9, 2));
    EXPECT_TRUE(hold.awaitHeld());
    serve::RequestOptions opts;
    opts.deadline = 10ms;
    std::vector<std::future<serve::InferenceResult>> futs;
    for (size_t i = 0; i < 3; ++i)
        futs.push_back(
            server.submit(nn::DigitDataset::render(i, 3 + i), opts));

    // Time jumps straight past every deadline (manual clock) while
    // they wait: the sweep must fail them without spending any
    // compute.
    clock.advance(20ms);
    hold.release();
    EXPECT_NO_THROW(blocker.get());
    for (auto &f : futs) {
        try {
            f.get();
            FAIL() << "doomed request should be shed";
        } catch (const ServeError &e) {
            EXPECT_EQ(e.code(), ServeErrorCode::Shed);
        }
    }
    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.shed, 3u);
    EXPECT_EQ(snap.completed, 1u);
    EXPECT_EQ(snap.batches, 1u); // the blocker's alone
    EXPECT_EQ(server.outstanding(), 0u);
}

TEST(OverloadServer, CancelledRequestNeverCorruptsBatchMates)
{
    OverloadFixture fx;
    WorkerHold hold;
    serve::ServerConfig scfg;
    scfg.limits = limits(3, 1h);
    scfg.faults = &hold.faults;
    serve::InferenceServer server(*fx.sc, scfg);

    serve::RequestOptions opts;
    opts.accuracy = AccuracyClass::High;
    const nn::Tensor a = nn::DigitDataset::render(1, 4);
    const nn::Tensor b = nn::DigitDataset::render(2, 5);
    const nn::Tensor c = nn::DigitDataset::render(3, 6);

    // A blocker holds the one worker, so a, b and c queue into one
    // full batch behind it.
    opts.seed = 500;
    auto blocker = server.submit(nn::DigitDataset::render(0, 3), opts);
    EXPECT_TRUE(hold.awaitHeld());
    opts.seed = 501;
    auto fa = server.submit(a, opts);
    opts.seed = 502;
    auto sb = server.submitCancellable(b, opts);
    sb.cancel->cancel(); // while queued
    opts.seed = 503;
    auto fc = server.submit(c, opts);
    hold.release();
    server.drain();

    EXPECT_NO_THROW(blocker.get());
    EXPECT_THROW(sb.result.get(), ServeError);
    // a, b and c closed as one batch of 3; the survivors ran as a
    // smaller batch and still match direct predict() bit-for-bit at
    // their seeds.
    const serve::InferenceResult ra = fa.get();
    EXPECT_EQ(ra.batch_size, 3u);
    EXPECT_EQ(ra.predicted, fx.sc->predict(a, 501));
    EXPECT_EQ(fc.get().predicted, fx.sc->predict(c, 503));

    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.cancelled, 1u);
    EXPECT_EQ(snap.completed, 3u);
    EXPECT_EQ(server.outstanding(), 0u);
}

TEST(OverloadServer, WorkerStallsStillAnswerEverything)
{
    OverloadFixture fx;
    FaultInjector fi;
    std::atomic<int> stalls{0};
    fi.setStallFn(
        [&](std::chrono::microseconds) { stalls.fetch_add(1); });
    serve::ServerConfig scfg;
    scfg.limits = limits(2, 200us);
    scfg.faults = &fi;
    serve::InferenceServer server(*fx.sc, scfg);

    fi.arm(FaultPoint::WorkerPop, 3, 5ms);
    std::vector<std::future<serve::InferenceResult>> futs;
    for (size_t i = 0; i < 6; ++i)
        futs.push_back(server.submit(nn::DigitDataset::render(i, 7)));
    server.drain();
    for (auto &f : futs)
        EXPECT_NO_THROW(f.get());

    // max_batch 2 over 6 requests means at least 3 pops: every armed
    // stall fired, and none of them cost a request.
    EXPECT_EQ(fi.firedCount(FaultPoint::WorkerPop), 3u);
    EXPECT_EQ(stalls.load(), 3);
    EXPECT_EQ(server.metricsSnapshot().completed, 6u);
}

TEST(OverloadServer, SlowBatchInflatesEstimateAndDegrades)
{
    OverloadFixture fx;
    FaultInjector fi;
    serve::ServerConfig scfg;
    scfg.limits = limits(8, 50ms);
    scfg.limits.shed_doomed = false; // observe degradation, not sheds
    scfg.faults = &fi;
    serve::InferenceServer server(*fx.sc, scfg);

    serve::RequestOptions warm;
    warm.accuracy = AccuracyClass::Balanced;
    server.submit(nn::DigitDataset::render(1, 2), warm).get();

    // A stalled batch inflates the measured Balanced service time
    // through the EWMA...
    fi.arm(FaultPoint::BatchExecute, 1, 8ms);
    server.submit(nn::DigitDataset::render(2, 3), warm).get();
    EXPECT_EQ(fi.firedCount(FaultPoint::BatchExecute), 1u);

    // ...so a deadline the inflated estimate cannot cover degrades
    // the request to Fast instead of missing silently.
    serve::RequestOptions tight;
    tight.accuracy = AccuracyClass::Balanced;
    tight.deadline = 300us;
    serve::InferenceResult r =
        server.submit(nn::DigitDataset::render(3, 4), tight).get();
    EXPECT_EQ(r.served, AccuracyClass::Fast);
    EXPECT_TRUE(r.degraded);
}

TEST(OverloadServer, DeadlineStormResolvesEveryFuture)
{
    OverloadFixture fx;
    ManualClock clock;
    WorkerHold hold;
    serve::ServerConfig scfg;
    scfg.limits = limits(8, 2ms);
    scfg.faults = &hold.faults;
    serve::InferenceServer server(*fx.sc, scfg, &clock);

    // Every request queues behind a held worker, so each close is
    // pinned to a deliberate clock step. Group A: deadlines the
    // scheduler expedites once time reaches their urgency trigger.
    // Group B: deadlines the clock jumps straight past while a second
    // blocker holds the worker. Each group stays under max_batch, so
    // nothing closes Full.
    serve::RequestOptions a_opts, b_opts;
    a_opts.deadline = 3ms;  // urgent at +1ms (3ms - 2ms slack)
    b_opts.deadline = 50ms; // urgent long after the test's horizon
    std::vector<std::future<serve::InferenceResult>> blockers, group_a,
        group_b;
    blockers.push_back(server.submit(nn::DigitDataset::render(9, 1)));
    EXPECT_TRUE(hold.awaitHeld(1));
    for (size_t i = 0; i < 3; ++i)
        group_a.push_back(
            server.submit(nn::DigitDataset::render(i, 2), a_opts));

    clock.advance(1500us); // A urgent, none doomed
    hold.release();
    size_t a_completed = 0;
    for (auto &f : group_a) {
        const serve::InferenceResult r = f.get();
        EXPECT_TRUE(r.deadline_met);
        ++a_completed;
    }
    EXPECT_EQ(a_completed, 3u);

    // The worker now idles on an empty queue: hold it again inside a
    // second blocker while group B queues behind it.
    hold.arm(1);
    blockers.push_back(server.submit(nn::DigitDataset::render(9, 4)));
    EXPECT_TRUE(hold.awaitHeld(2));
    for (size_t i = 0; i < 3; ++i)
        group_b.push_back(
            server.submit(nn::DigitDataset::render(i, 3), b_opts));
    clock.advance(60ms); // now past every B deadline: shed, not run
    hold.release();
    for (auto &f : group_b)
        EXPECT_THROW(f.get(), ServeError);
    for (auto &f : blockers)
        EXPECT_NO_THROW(f.get());

    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.completed, 5u); // group A and the two blockers
    EXPECT_EQ(snap.shed, 3u);
    EXPECT_EQ(snap.good_completed, 5u);
    EXPECT_GT(snap.close_reasons[static_cast<size_t>(
                  serve::CloseReason::Expedited)],
              0u);
    EXPECT_EQ(server.outstanding(), 0u);
}

TEST(OverloadServer, SurvivesClockSkewJump)
{
    OverloadFixture fx;
    serve::SteadyClock base;
    serve::SkewedClock skewed(&base);
    WorkerHold hold;
    serve::ServerConfig scfg;
    scfg.limits = limits(8, 1h);
    scfg.faults = &hold.faults;
    serve::InferenceServer server(*fx.sc, scfg, &skewed);

    // Requests queue behind a held worker; a forward clock step while
    // they wait puts the deadlined ones past their deadline. The
    // server must serve the rest and shed those rather than wedge on
    // stale times.
    auto blocker = server.submit(nn::DigitDataset::render(9, 9));
    EXPECT_TRUE(hold.awaitHeld());
    std::vector<std::future<serve::InferenceResult>> futs, doomed;
    for (size_t i = 0; i < 4; ++i)
        futs.push_back(server.submit(nn::DigitDataset::render(i, 9)));
    serve::RequestOptions deadlined;
    deadlined.deadline = 1h;
    for (size_t i = 0; i < 2; ++i)
        doomed.push_back(
            server.submit(nn::DigitDataset::render(i, 10), deadlined));

    skewed.setSkew(2h);
    hold.release();
    EXPECT_NO_THROW(blocker.get());
    for (auto &f : futs)
        EXPECT_NO_THROW(f.get());
    for (auto &f : doomed)
        EXPECT_THROW(f.get(), ServeError);
    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.completed, 5u);
    EXPECT_EQ(snap.shed, 2u);
    EXPECT_EQ(server.outstanding(), 0u);
}

} // namespace
} // namespace scdcnn
