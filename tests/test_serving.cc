/**
 * @file
 * Serving-layer tests: deterministic fake-clock coverage of every
 * batch-close condition in the scheduler (the close is
 * work-conserving: a lone request never waits for batch-mates),
 * histogram/metrics sanity, and end-to-end InferenceServer
 * behaviour — answers matching direct
 * predict() calls, multi-producer stress (each request answered
 * exactly once), drain/shutdown semantics, and deadline-driven
 * precision degradation.
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
#include "serve/metrics.h"
#include "serve/request_queue.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "worker_hold.h"

namespace scdcnn {
namespace {

using namespace std::chrono_literals;
using serve::AccuracyClass;
using serve::BatchScheduler;
using serve::CloseReason;
using serve::ManualClock;
using serve::SchedulerLimits;

SchedulerLimits
limits(size_t max_batch, std::chrono::microseconds delay)
{
    SchedulerLimits l;
    l.max_batch = max_batch;
    l.max_queue_delay = delay;
    return l;
}

// ---------------------------------------------------------- scheduler

TEST(BatchScheduler, FullBatchClosesImmediately)
{
    ManualClock clock;
    BatchScheduler s(limits(3, 1000us));
    const auto t = clock.now();
    for (uint64_t id = 10; id < 14; ++id)
        s.push(id, AccuracyClass::Balanced, t, std::nullopt);

    // Four queued behind a busy worker: the next poll takes a full
    // batch in FIFO order, the one after that the remainder.
    const auto plan = s.poll(t);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->reason, CloseReason::Full);
    EXPECT_EQ(plan->cls, AccuracyClass::Balanced);
    EXPECT_EQ(plan->ids, (std::vector<uint64_t>{10, 11, 12}));
    const auto rest = s.poll(t);
    ASSERT_TRUE(rest.has_value());
    EXPECT_EQ(rest->reason, CloseReason::Idle);
    EXPECT_EQ(rest->ids, (std::vector<uint64_t>{13}));
    EXPECT_EQ(s.depth(), 0u);
}

TEST(BatchScheduler, IdlePollClosesPartialBatchAtOnce)
{
    ManualClock clock;
    BatchScheduler s(limits(8, 1h));
    EXPECT_FALSE(s.poll(clock.now()).has_value());
    s.push(1, AccuracyClass::High, clock.now(), std::nullopt);
    clock.advance(400us);
    s.push(2, AccuracyClass::High, clock.now(), std::nullopt);

    // Far inside the hour-long queue delay: the poll comes from an
    // idle worker, so the partial batch closes without waiting.
    const auto plan = s.poll(clock.now());
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->reason, CloseReason::Idle);
    EXPECT_EQ(plan->ids, (std::vector<uint64_t>{1, 2}));
    EXPECT_FALSE(s.poll(clock.now()).has_value());
}

TEST(BatchScheduler, PartialClosesTakeOldestHeadFirst)
{
    ManualClock clock;
    BatchScheduler s(limits(8, 1h));
    s.push(1, AccuracyClass::Fast, clock.now(), std::nullopt);
    clock.advance(1us);
    s.push(2, AccuracyClass::High, clock.now(), std::nullopt);

    auto first = s.poll(clock.now());
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->reason, CloseReason::Idle);
    EXPECT_EQ(first->cls, AccuracyClass::Fast);
    auto second = s.poll(clock.now());
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->cls, AccuracyClass::High);
    EXPECT_FALSE(s.poll(clock.now()).has_value());
}

TEST(BatchScheduler, FifoWithinAccuracyClass)
{
    ManualClock clock;
    BatchScheduler s(limits(2, 1000us));
    // Interleave two classes; each class's batches must preserve its
    // own submission order.
    s.push(1, AccuracyClass::High, clock.now(), std::nullopt);
    s.push(2, AccuracyClass::Fast, clock.now(), std::nullopt);
    clock.advance(1us);
    s.push(3, AccuracyClass::High, clock.now(), std::nullopt);
    s.push(4, AccuracyClass::Fast, clock.now(), std::nullopt);

    auto a = s.poll(clock.now());
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->cls, AccuracyClass::High); // oldest head among full
    EXPECT_EQ(a->ids, (std::vector<uint64_t>{1, 3}));
    auto b = s.poll(clock.now());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->ids, (std::vector<uint64_t>{2, 4}));
}

TEST(BatchScheduler, BatchesNeverMixAccuracyClasses)
{
    ManualClock clock;
    BatchScheduler s(limits(4, 500us));
    s.push(1, AccuracyClass::High, clock.now(), std::nullopt);
    s.push(2, AccuracyClass::Balanced, clock.now(), std::nullopt);
    auto plan = s.poll(clock.now());
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->ids, (std::vector<uint64_t>{1}));
    plan = s.poll(clock.now());
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->ids, (std::vector<uint64_t>{2}));
}

TEST(BatchScheduler, TightDeadlineExpeditesAndDegrades)
{
    ManualClock clock;
    BatchScheduler s(limits(8, 10ms));
    s.setServiceEstimate(AccuracyClass::High, 100ms);
    s.setServiceEstimate(AccuracyClass::Balanced, 30ms);
    s.setServiceEstimate(AccuracyClass::Fast, 5ms);

    // Requested High, but the deadline only affords Balanced: urgent
    // right away (100 + 10 > 40), served at the degraded class.
    s.push(7, AccuracyClass::High, clock.now(), clock.now() + 40ms);
    const auto plan = s.poll(clock.now());
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->reason, CloseReason::Expedited);
    EXPECT_EQ(plan->cls, AccuracyClass::Balanced);
    EXPECT_EQ(plan->ids, (std::vector<uint64_t>{7}));
}

TEST(BatchScheduler, RelaxedDeadlineIsNotExpeditedUntilUrgent)
{
    ManualClock clock;
    BatchScheduler s(limits(8, 10ms));
    s.setServiceEstimate(AccuracyClass::Balanced, 30ms);
    s.push(3, AccuracyClass::Balanced, clock.now(),
           clock.now() + 200ms);
    // Not urgent yet (trigger at 200 - 30 - 10 = 160ms): it closes as
    // ordinary idle work at its requested class, not expedited.
    auto plan = s.poll(clock.now());
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->reason, CloseReason::Idle);
    EXPECT_EQ(plan->cls, AccuracyClass::Balanced);

    // The same deadline, still queued at its trigger, expedites ahead
    // of older undeadlined work.
    s.push(4, AccuracyClass::High, clock.now(), std::nullopt);
    clock.advance(1us);
    s.push(5, AccuracyClass::Balanced, clock.now(),
           clock.now() + 200ms);
    clock.advance(160ms);
    plan = s.poll(clock.now());
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->reason, CloseReason::Expedited);
    EXPECT_EQ(plan->ids, (std::vector<uint64_t>{5}));
    plan = s.poll(clock.now());
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->reason, CloseReason::Idle);
    EXPECT_EQ(plan->ids, (std::vector<uint64_t>{4}));
}

TEST(BatchScheduler, UrgentRequestsGroupIntoOneExpeditedBatch)
{
    ManualClock clock;
    BatchScheduler s(limits(8, 10ms));
    s.setServiceEstimate(AccuracyClass::Fast, 5ms);
    s.push(1, AccuracyClass::Fast, clock.now(), clock.now() + 12ms);
    s.push(2, AccuracyClass::Fast, clock.now(), clock.now() + 8ms);
    s.push(3, AccuracyClass::Fast, clock.now(), std::nullopt);
    const auto plan = s.poll(clock.now());
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->reason, CloseReason::Expedited);
    // Tightest deadline first; the undeadlined request stays queued.
    EXPECT_EQ(plan->ids, (std::vector<uint64_t>{2, 1}));
    EXPECT_EQ(s.depth(), 1u);
}

// ------------------------------------------------------------ metrics

TEST(LatencyHistogram, QuantilesLandInTheRightBucket)
{
    serve::LatencyHistogram h;
    for (int i = 0; i < 100; ++i)
        h.record(10.0); // 10ms
    h.record(1000.0);   // one 1s outlier
    const auto s = h.stats();
    EXPECT_EQ(s.count, 101u);
    // Bucket resolution is 1/8 relative; generous bounds.
    EXPECT_GT(s.p50_ms, 7.0);
    EXPECT_LT(s.p50_ms, 13.0);
    EXPECT_GT(s.p99_ms, 7.0);
    EXPECT_LT(s.p99_ms, 13.0);
    EXPECT_NEAR(s.max_ms, 1000.0, 1.0);
    EXPECT_GT(s.mean_ms, 10.0);
}

TEST(LatencyHistogram, EmptyIsAllZero)
{
    serve::LatencyHistogram h;
    const auto s = h.stats();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.p99_ms, 0.0);
}

TEST(ServerMetrics, SnapshotJsonCarriesTheHeadlineFields)
{
    serve::ServerMetrics m;
    m.recordSubmit();
    m.recordBatch(1, 0, CloseReason::Drain);
    serve::InferenceResult r;
    r.effective_bits = 128;
    r.early_exit = true;
    r.total_ms = 5.0;
    r.queue_ms = 1.0;
    m.recordResult(r, /*had_deadline=*/false);

    m.recordBatchExecution(core::EngineMode::Progressive,
                           /*bits_spread=*/96);
    m.recordBatchExecution(core::EngineMode::Binary, /*bits_spread=*/32);

    const auto snap = m.snapshot();
    EXPECT_EQ(snap.submitted, 1u);
    EXPECT_EQ(snap.completed, 1u);
    EXPECT_EQ(snap.batches, 1u);
    EXPECT_DOUBLE_EQ(snap.avg_effective_bits_spread, 64.0);
    EXPECT_EQ(snap.max_effective_bits_spread, 96u);
    EXPECT_DOUBLE_EQ(snap.early_exit_rate, 1.0);
    EXPECT_DOUBLE_EQ(snap.avg_effective_bits, 128.0);
    const std::string json = snap.toJson();
    EXPECT_NE(json.find("\"completed\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"latency\""), std::string::npos);
    EXPECT_NE(json.find("\"batch_sizes\""), std::string::npos);
    EXPECT_NE(json.find("\"close_reasons\""), std::string::npos);
    EXPECT_NE(json.find("\"max_effective_bits_spread\": 96"),
              std::string::npos);
    EXPECT_EQ(snap.batches_by_mode[static_cast<size_t>(
                  core::EngineMode::Progressive)],
              1u);
    EXPECT_EQ(snap.batches_by_mode[static_cast<size_t>(
                  core::EngineMode::Binary)],
              1u);
    EXPECT_NE(json.find("\"batches_by_mode\""), std::string::npos);
    EXPECT_NE(json.find("\"binary\": 1"), std::string::npos);
}

// ------------------------------------------------------ request queue

TEST(RequestQueue, FullBatchPopsWithPayloads)
{
    serve::SteadyClock clock;
    serve::RequestQueue q(limits(2, 1h), &clock);
    for (uint64_t i = 0; i < 2; ++i) {
        serve::PendingRequest r;
        r.id = i;
        r.submitted = clock.now();
        ASSERT_EQ(q.push(std::move(r)), serve::AdmitResult::Accepted);
    }
    const auto batch = q.popBatch().batch;
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->items.size(), 2u);
    EXPECT_EQ(batch->items[0].id, 0u);
    EXPECT_EQ(batch->items[1].id, 1u);
}

TEST(RequestQueue, CloseDrainsBacklogThenSignalsExit)
{
    serve::SteadyClock clock;
    serve::RequestQueue q(limits(8, 1h), &clock);
    serve::PendingRequest r;
    r.id = 42;
    r.submitted = clock.now();
    ASSERT_EQ(q.push(std::move(r)), serve::AdmitResult::Accepted);
    q.close();

    auto batch = q.popBatch().batch; // flushes the partial batch
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->reason, CloseReason::Drain);
    EXPECT_TRUE(q.popBatch().closed); // closed and empty

    serve::PendingRequest late;
    late.id = 43;
    EXPECT_EQ(q.push(std::move(late)), serve::AdmitResult::Closed);
}

TEST(RequestQueue, LonePushPopsAtOnceAsIdle)
{
    // A frozen manual clock and an hour-long queue delay: nothing
    // time-driven can close this batch, so it pops only because the
    // close is work-conserving.
    ManualClock clock;
    serve::RequestQueue q(limits(8, 1h), &clock);
    serve::PendingRequest r;
    r.id = 5;
    r.submitted = clock.now();
    ASSERT_EQ(q.push(std::move(r)), serve::AdmitResult::Accepted);

    std::promise<serve::PopOutcome> popped;
    std::future<serve::PopOutcome> out = popped.get_future();
    std::thread consumer([&] { popped.set_value(q.popBatch()); });
    const bool ready = out.wait_for(30s) == std::future_status::ready;
    q.close(); // a still-blocked popBatch drains instead of hanging
    consumer.join();
    ASSERT_TRUE(ready) << "popBatch held a lone request back";
    const auto batch = out.get().batch;
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->reason, CloseReason::Idle);
    ASSERT_EQ(batch->items.size(), 1u);
    EXPECT_EQ(batch->items[0].id, 5u);
    EXPECT_EQ(batch->depth_after, 0u);
}

// ------------------------------------------------- server end-to-end

/** Small, fast engine shared by the server tests. */
struct ServingFixture
{
    nn::Network net = nn::buildLeNet5(nn::PoolingMode::Max, 1);
    core::ScNetworkConfig cfg;
    std::unique_ptr<core::ScNetwork> sc;

    explicit ServingFixture(size_t len = 128, size_t seg_words = 1)
    {
        cfg.bitstream_len = len;
        cfg.stream_segment_words = seg_words;
        sc = std::make_unique<core::ScNetwork>(net, cfg);
    }
};

TEST(InferenceServer, AnswersMatchDirectPredict)
{
    ServingFixture fx;
    serve::ServerConfig scfg;
    scfg.limits = limits(4, 200us);
    serve::InferenceServer server(*fx.sc, scfg);

    std::vector<nn::Tensor> images;
    std::vector<std::future<serve::InferenceResult>> futures;
    for (size_t i = 0; i < 6; ++i) {
        images.push_back(nn::DigitDataset::render(i % 10, 7 + i));
        serve::RequestOptions opts;
        opts.accuracy = AccuracyClass::High;
        opts.seed = 1000 + i;
        futures.push_back(server.submit(images.back(), opts));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        serve::InferenceResult r = futures[i].get();
        EXPECT_EQ(r.predicted, fx.sc->predict(images[i], 1000 + i));
        EXPECT_EQ(r.effective_bits, fx.cfg.bitstream_len);
        EXPECT_FALSE(r.early_exit);
        EXPECT_EQ(r.served, AccuracyClass::High);
        EXPECT_FALSE(r.degraded);
        EXPECT_GE(r.batch_size, 1u);
        EXPECT_LE(r.batch_size, 4u);
    }
    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.completed, 6u);
    EXPECT_EQ(snap.submitted, 6u);
}

TEST(InferenceServer, LoneRequestIsServedWithoutWaitingForBatchMates)
{
    // The clock never advances and the queue delay is an hour, so a
    // close that waited for batch-mates would never serve this one
    // request; the idle worker takes it at once.
    ServingFixture fx;
    ManualClock clock;
    serve::ServerConfig scfg;
    scfg.limits = limits(8, 1h);
    serve::InferenceServer server(*fx.sc, scfg, &clock);

    auto fut = server.submit(nn::DigitDataset::render(4, 8));
    ASSERT_EQ(fut.wait_for(30s), std::future_status::ready);
    const serve::InferenceResult r = fut.get();
    EXPECT_EQ(r.batch_size, 1u);
    EXPECT_EQ(r.queue_ms, 0.0);
    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.close_reasons[static_cast<size_t>(CloseReason::Idle)],
              1u);
}

TEST(InferenceServer, MicroBatchesTakeTheBatchKernel)
{
    // The one batch worker is held inside a Fast (Binary) blocker
    // while six High requests queue behind it, so with max_batch = 3
    // it then closes two full batches, each 3 images on the
    // weight-stationary batch kernels — answers still match direct
    // predict() at the per-item seeds, and full-precision batches
    // report zero effective-bits spread.
    ServingFixture fx;
    WorkerHold hold;
    serve::ServerConfig scfg;
    scfg.limits = limits(3, 1h);
    scfg.faults = &hold.faults;
    serve::InferenceServer server(*fx.sc, scfg);

    serve::RequestOptions blocker;
    blocker.accuracy = AccuracyClass::Fast;
    auto blocked = server.submit(nn::DigitDataset::render(0, 29), blocker);
    EXPECT_TRUE(hold.awaitHeld());
    std::vector<nn::Tensor> images;
    std::vector<std::future<serve::InferenceResult>> futures;
    for (size_t i = 0; i < 6; ++i) {
        images.push_back(nn::DigitDataset::render(i % 10, 30 + i));
        serve::RequestOptions opts;
        opts.accuracy = AccuracyClass::High;
        opts.seed = 5000 + i * 13;
        futures.push_back(server.submit(images.back(), opts));
    }
    hold.release();
    EXPECT_EQ(blocked.get().batch_size, 1u);
    for (size_t i = 0; i < futures.size(); ++i) {
        serve::InferenceResult r = futures[i].get();
        EXPECT_EQ(r.batch_size, 3u) << "request=" << i;
        EXPECT_EQ(r.predicted, fx.sc->predict(images[i], 5000 + i * 13))
            << "request=" << i;
    }
    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.batches_by_mode[static_cast<size_t>(
                  core::EngineMode::Fused)],
              2u);
    EXPECT_DOUBLE_EQ(snap.avg_effective_bits_spread, 0.0);
    EXPECT_EQ(snap.max_effective_bits_spread, 0u);

    // Singleton batches run the same driver: max_batch = 1 makes every
    // micro-batch a single image, and each served answer — class,
    // scores and consumed bits — equals a direct predictWith at its
    // seed under the served policy.
    serve::ServerConfig single_cfg;
    single_cfg.limits = limits(1, 1h);
    serve::InferenceServer singles(*fx.sc, single_cfg);
    std::vector<std::future<serve::InferenceResult>> sf;
    for (size_t i = 0; i < 2; ++i) {
        serve::RequestOptions opts;
        opts.accuracy = AccuracyClass::High;
        opts.seed = 6000 + i;
        sf.push_back(singles.submit(images[i], opts));
    }
    const core::PredictOptions high =
        singles.config()
            .qos[static_cast<size_t>(AccuracyClass::High)]
            .predictOptions();
    for (size_t i = 0; i < sf.size(); ++i) {
        const serve::InferenceResult r = sf[i].get();
        EXPECT_EQ(r.batch_size, 1u) << "request=" << i;
        EXPECT_EQ(r.seed, 6000 + i) << "request=" << i;
        core::ForwardInfo direct;
        EXPECT_EQ(r.predicted,
                  fx.sc->predictWith(images[i], 6000 + i, high, &direct))
            << "request=" << i;
        EXPECT_EQ(r.scores, direct.scores) << "request=" << i;
        EXPECT_EQ(r.effective_bits, direct.effective_bits)
            << "request=" << i;
    }
}

TEST(InferenceServer, ServesNonLeNetTopologies)
{
    // The serving layer is topology-general: a conv-free MLP
    // (784-500-10) and the deeper 3-conv LeNet-L both serve
    // end-to-end — submit() -> micro-batched predictWith -> futures —
    // with predictions bit-equal to direct predict() calls.
    struct Scenario
    {
        const char *name;
        nn::Network net;
    };
    Scenario scenarios[] = {
        {"mlp", nn::buildMlp(1)},
        {"lenet-l", nn::buildLeNetL(nn::PoolingMode::Max, 1)},
    };
    for (Scenario &sc : scenarios) {
        core::ScNetworkConfig cfg;
        cfg.bitstream_len = 128;
        cfg.stream_segment_words = 1;
        core::ScNetwork engine(sc.net, cfg);
        serve::ServerConfig scfg;
        scfg.limits = limits(4, 200us);
        serve::InferenceServer server(engine, scfg);

        std::vector<nn::Tensor> images;
        std::vector<std::future<serve::InferenceResult>> futures;
        for (size_t i = 0; i < 4; ++i) {
            images.push_back(nn::DigitDataset::render(i % 10, 40 + i));
            serve::RequestOptions opts;
            opts.accuracy = AccuracyClass::High;
            opts.seed = 3000 + i;
            futures.push_back(server.submit(images.back(), opts));
        }
        for (size_t i = 0; i < futures.size(); ++i) {
            serve::InferenceResult r = futures[i].get();
            EXPECT_EQ(r.predicted, engine.predict(images[i], 3000 + i))
                << sc.name << " image " << i;
            EXPECT_EQ(r.scores.size(), 10u) << sc.name;
            EXPECT_EQ(r.effective_bits, cfg.bitstream_len) << sc.name;
        }
        const auto snap = server.metricsSnapshot();
        EXPECT_EQ(snap.completed, 4u) << sc.name;
    }
}

TEST(InferenceServer, QosTableIsDerivedFromTheServedNetwork)
{
    // A network calibrated with its own Progressive knobs propagates
    // them into the server's resolved QoS table: Balanced inherits
    // margin/floor; the default Fast policy is the binary backend
    // (explicit zeros, nothing to derive); a Fast entry overridden to
    // sentinel Progressive halves the margin and quarters the floor;
    // explicit entries are untouched.
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 1);
    core::ScNetworkConfig cfg;
    cfg.bitstream_len = 256;
    cfg.progressive_margin = 3.0;
    cfg.progressive_min_bits = 128;
    core::ScNetwork engine(net, cfg);

    serve::InferenceServer server(engine, {});
    const auto &qos = server.config().qos;
    const auto &balanced =
        qos[static_cast<size_t>(AccuracyClass::Balanced)];
    EXPECT_DOUBLE_EQ(balanced.progressive_margin, 3.0);
    EXPECT_EQ(balanced.progressive_min_bits, 128u);
    const auto &fast = qos[static_cast<size_t>(AccuracyClass::Fast)];
    EXPECT_EQ(fast.mode, core::EngineMode::Binary);
    EXPECT_DOUBLE_EQ(fast.progressive_margin, 0.0);
    EXPECT_EQ(fast.progressive_min_bits, 0u);

    serve::ServerConfig derive_cfg;
    derive_cfg.qos[static_cast<size_t>(AccuracyClass::Fast)] =
        serve::QosPolicy{core::EngineMode::Progressive};
    serve::InferenceServer server_derived(engine, derive_cfg);
    const auto &fast_derived =
        server_derived.config()
            .qos[static_cast<size_t>(AccuracyClass::Fast)];
    EXPECT_DOUBLE_EQ(fast_derived.progressive_margin, 1.5);
    EXPECT_EQ(fast_derived.progressive_min_bits, 32u);

    serve::ServerConfig explicit_cfg;
    explicit_cfg.qos[static_cast<size_t>(AccuracyClass::Fast)] = {
        core::EngineMode::Progressive, 9.0, 16};
    serve::InferenceServer server2(engine, explicit_cfg);
    const auto &fast2 = server2.config()
                            .qos[static_cast<size_t>(AccuracyClass::Fast)];
    EXPECT_DOUBLE_EQ(fast2.progressive_margin, 9.0);
    EXPECT_EQ(fast2.progressive_min_bits, 16u);
}

TEST(InferenceServer, MultiProducerStressEveryRequestAnsweredOnce)
{
    ServingFixture fx;
    serve::ServerConfig scfg;
    scfg.limits = limits(4, 300us);
    serve::InferenceServer server(*fx.sc, scfg);

    constexpr size_t kProducers = 4;
    constexpr size_t kPerProducer = 12;
    std::vector<std::vector<std::future<serve::InferenceResult>>> futs(
        kProducers);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (size_t i = 0; i < kPerProducer; ++i) {
                const uint64_t seed = 5000 + p * 100 + i;
                serve::RequestOptions opts;
                // Mix classes so batches of different QoS interleave;
                // High keeps predictions comparable to predict().
                opts.accuracy = AccuracyClass::High;
                opts.seed = seed;
                futs[p].push_back(server.submit(
                    nn::DigitDataset::render((p + i) % 10, seed),
                    opts));
            }
        });
    }
    for (auto &t : producers)
        t.join();

    size_t answered = 0;
    for (size_t p = 0; p < kProducers; ++p) {
        for (size_t i = 0; i < kPerProducer; ++i) {
            const uint64_t seed = 5000 + p * 100 + i;
            serve::InferenceResult r = futs[p][i].get();
            ++answered;
            EXPECT_EQ(r.seed, seed);
            EXPECT_EQ(r.predicted,
                      fx.sc->predict(
                          nn::DigitDataset::render((p + i) % 10, seed),
                          seed));
        }
    }
    EXPECT_EQ(answered, kProducers * kPerProducer);
    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.completed, kProducers * kPerProducer);
    EXPECT_EQ(snap.submitted, kProducers * kPerProducer);
    EXPECT_EQ(snap.rejected, 0u);
}

TEST(InferenceServer, ProgressiveClassReportsEffectiveBits)
{
    // Decisive output weights so the Progressive margin actually
    // fires (untrained logits are near-tied; see bench_throughput).
    nn::Network net = nn::buildLeNet5(nn::PoolingMode::Max, 1);
    nn::programDecisiveLogits(net);
    core::ScNetworkConfig cfg;
    cfg.bitstream_len = 256;
    cfg.stream_segment_words = 1;
    core::ScNetwork sc(net, cfg);

    serve::ServerConfig scfg;
    scfg.limits = limits(2, 100us);
    // Opt Fast back into sentinel Progressive (the default Fast policy
    // is now the binary backend): the server derives the aggressive
    // half-margin / quarter-floor knobs this test exercises.
    scfg.qos[static_cast<size_t>(AccuracyClass::Fast)] =
        serve::QosPolicy{core::EngineMode::Progressive};
    serve::InferenceServer server(sc, scfg);

    const nn::Tensor img = nn::DigitDataset::render(3, 7);
    serve::RequestOptions opts;
    opts.accuracy = AccuracyClass::Fast;
    opts.seed = 99;
    serve::InferenceResult r = server.submit(img, opts).get();

    EXPECT_LE(r.effective_bits, cfg.bitstream_len);
    EXPECT_GT(r.effective_bits, 0u);
    // The served result must equal a direct predictWith at the same
    // policy and seed — bit-exact, batching must not change outcomes.
    // The server resolves the QoS derive sentinels at construction,
    // so the policy to mirror is the resolved one in config().
    const serve::QosPolicy &fast =
        server.config().qos[static_cast<size_t>(AccuracyClass::Fast)];
    core::ForwardInfo direct;
    const size_t pred =
        sc.predictWith(img, 99, fast.predictOptions(), &direct);
    EXPECT_EQ(r.predicted, pred);
    EXPECT_EQ(r.effective_bits, direct.effective_bits);
    EXPECT_EQ(r.early_exit, direct.early_exit);
    EXPECT_TRUE(r.early_exit); // decisive logits at a loose margin
}

TEST(InferenceServer, FastClassRoutesToTheBinaryBackend)
{
    // The Fast accuracy class is served by EngineMode::Binary end to
    // end: predictions match direct BinaryNetwork calls (the backend
    // is deterministic, so the server's seed schedule is irrelevant),
    // results report the single-pass cost, and the metrics snapshot
    // records the batches under the binary mode.
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 1);
    core::ScNetworkConfig cfg;
    cfg.bitstream_len = 256;
    core::ScNetwork sc(net, cfg);

    serve::ServerConfig scfg;
    scfg.limits = limits(4, 300us);
    serve::InferenceServer server(sc, scfg);

    std::vector<std::future<serve::InferenceResult>> futs;
    constexpr size_t kImages = 12;
    for (size_t i = 0; i < kImages; ++i) {
        serve::RequestOptions opts;
        opts.accuracy = AccuracyClass::Fast;
        opts.seed = 4200 + i;
        futs.push_back(
            server.submit(nn::DigitDataset::render(i % 10, i), opts));
    }
    for (size_t i = 0; i < kImages; ++i) {
        serve::InferenceResult r = futs[i].get();
        const nn::Tensor img = nn::DigitDataset::render(i % 10, i);
        std::vector<double> scores;
        EXPECT_EQ(r.predicted, sc.binaryNet().predict(img, &scores));
        EXPECT_EQ(r.effective_bits, 1u);
        EXPECT_FALSE(r.early_exit);
        EXPECT_EQ(r.served, AccuracyClass::Fast);
    }

    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.completed, kImages);
    const uint64_t binary_batches = snap.batches_by_mode[static_cast<
        size_t>(core::EngineMode::Binary)];
    EXPECT_GT(binary_batches, 0u);
    // Every executed batch of this run was a Fast batch.
    uint64_t executed = 0;
    for (const uint64_t n : snap.batches_by_mode)
        executed += n;
    EXPECT_EQ(binary_batches, executed);
}

TEST(InferenceServer, TightDeadlineDegradesToFasterClass)
{
    ServingFixture fx;
    serve::ServerConfig scfg;
    scfg.limits = limits(8, 50ms);
    // Observe pure deadline degradation: with shedding on, a 1us
    // deadline would be dropped as doomed before it could degrade.
    scfg.limits.shed_doomed = false;
    serve::InferenceServer server(*fx.sc, scfg);

    // Warm the service estimate so urgency has something to bite on.
    serve::RequestOptions warm;
    warm.accuracy = AccuracyClass::Balanced;
    server.submit(nn::DigitDataset::render(1, 2), warm).get();

    serve::RequestOptions opts;
    opts.accuracy = AccuracyClass::Balanced;
    opts.deadline = 1us; // cannot possibly be met at Balanced
    serve::InferenceResult r =
        server.submit(nn::DigitDataset::render(2, 3), opts).get();
    EXPECT_EQ(r.served, AccuracyClass::Fast);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.requested, AccuracyClass::Balanced);
}

TEST(InferenceServer, DrainAnswersPartialBatchesAndKeepsServing)
{
    // drain() returns only once every accepted request is answered,
    // partial batches included, and leaves intake open.
    ServingFixture fx;
    serve::ServerConfig scfg;
    scfg.limits = limits(8, 10min);
    serve::InferenceServer server(*fx.sc, scfg);

    std::vector<std::future<serve::InferenceResult>> futs;
    for (size_t i = 0; i < 3; ++i)
        futs.push_back(
            server.submit(nn::DigitDataset::render(i, 4 + i)));
    server.drain();
    for (auto &f : futs)
        EXPECT_NO_THROW(f.get());
    EXPECT_EQ(server.outstanding(), 0u);

    // Intake stays open after a drain.
    auto again = server.submit(nn::DigitDataset::render(9, 9));
    server.drain();
    EXPECT_NO_THROW(again.get());
}

TEST(InferenceServer, ShutdownServesBacklogThenRejects)
{
    ServingFixture fx;
    serve::ServerConfig scfg;
    scfg.limits = limits(8, 10min);
    serve::InferenceServer server(*fx.sc, scfg);

    auto accepted = server.submit(nn::DigitDataset::render(5, 6));
    server.shutdown();
    EXPECT_NO_THROW(accepted.get()); // backlog still served

    // The post-shutdown submit fails immediately with the typed
    // error (still a std::runtime_error for legacy catch sites).
    auto rejected = server.submit(nn::DigitDataset::render(6, 7));
    try {
        rejected.get();
        FAIL() << "post-shutdown submit should fail";
    } catch (const serve::ServeError &e) {
        EXPECT_EQ(e.code(), serve::ServeErrorCode::ShutDown);
    }
    const auto snap = server.metricsSnapshot();
    EXPECT_EQ(snap.rejected, 1u);
    EXPECT_EQ(snap.rejected_shutdown, 1u);
}

TEST(InferenceServer, MultipleBatchWorkersSharingOneComputePool)
{
    // Two batch workers fanning concurrent batches over one shared
    // pool: the per-call completion latch in parallelForChunks must
    // keep each worker's wait independent (a pool-global in-flight
    // wait can be starved by the other worker's submissions).
    ServingFixture fx;
    ThreadPool pool(2);
    serve::ServerConfig scfg;
    scfg.limits = limits(2, 200us);
    scfg.batch_workers = 2;
    scfg.compute_pool = &pool;
    serve::InferenceServer server(*fx.sc, scfg);

    std::vector<std::future<serve::InferenceResult>> futs;
    for (size_t i = 0; i < 10; ++i) {
        serve::RequestOptions opts;
        opts.accuracy = AccuracyClass::High;
        opts.seed = 7000 + i;
        futs.push_back(server.submit(
            nn::DigitDataset::render(i % 10, 7000 + i), opts));
    }
    for (size_t i = 0; i < futs.size(); ++i) {
        serve::InferenceResult r = futs[i].get();
        EXPECT_EQ(r.predicted,
                  fx.sc->predict(
                      nn::DigitDataset::render(i % 10, 7000 + i),
                      7000 + i));
    }
}

TEST(InferenceServer, DedicatedComputePoolIsDrainedNotDestroyed)
{
    ServingFixture fx;
    ThreadPool pool(2);
    {
        serve::ServerConfig scfg;
        scfg.limits = limits(2, 100us);
        scfg.compute_pool = &pool;
        serve::InferenceServer server(*fx.sc, scfg);
        server.submit(nn::DigitDataset::render(1, 11)).get();
    } // ~InferenceServer -> shutdown -> pool.drain()

    // The pool survives and still works.
    std::atomic<int> hits{0};
    pool.submit([&hits] { hits.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(hits.load(), 1);
}

} // namespace
} // namespace scdcnn
