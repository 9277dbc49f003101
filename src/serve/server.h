/**
 * @file
 * Asynchronous inference server over ScNetwork.
 *
 * submit() hands back a std::future immediately; batch-worker threads
 * pull dynamically-coalesced micro-batches from the RequestQueue (see
 * scheduler.h for the close conditions) and run them through the
 * engine via predictWith(), one PredictOptions per batch mapped from
 * the batch's accuracy class by the server's QoS table. Measured
 * per-image service times feed back into the scheduler's
 * deadline-urgency estimates, closing the loop that lets a tight
 * deadline buy fewer effective bits instead of a miss. drain() waits
 * out the backlog without stopping intake; shutdown() (also run by
 * the destructor) stops intake, serves what was accepted, joins the
 * workers, and drains any dedicated compute pool.
 */

#ifndef SCDCNN_SERVE_SERVER_H
#define SCDCNN_SERVE_SERVER_H

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sc_network.h"
#include "serve/clock.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/scheduler.h"

namespace scdcnn {

class ThreadPool;

namespace serve {

struct ServerConfig
{
    /** Micro-batching and overload bounds (max_batch, urgency slack,
     *  admission cap, shedding). */
    SchedulerLimits limits;

    /** Batch-runner threads pulling from the queue. One is right for
     *  a box the engine already saturates; more overlap queueing with
     *  compute on larger machines. */
    size_t batch_workers = 1;

    /** Pool for intra-batch fan-out; null uses the process-global
     *  pool. A dedicated pool is drained at shutdown. */
    ThreadPool *compute_pool = nullptr;

    /** Base of the id-derived per-request seed schedule (requests
     *  with an explicit RequestOptions::seed bypass it). */
    uint64_t base_seed = 0x5EED;

    /** Trace tag (obs::TraceRecorder::internTag) stamped on every
     *  event this server emits — the registry interns each model id
     *  so traces and flight-recorder dumps can be filtered per model.
     *  0 leaves events untagged. */
    uint16_t trace_tag = 0;

    /**
     * Arm every deadlined request's cancellation token against its
     * absolute deadline: an in-flight prediction then stops burning
     * bits at the next segment boundary once the deadline passes,
     * instead of finishing a result nobody can use. Off by default —
     * a late-but-complete result is still a result; overloaded
     * deployments turn it on to reclaim the compute.
     */
    bool cancel_on_deadline = false;

    /** Chaos hook (nullptr in production): shot-counted faults fired
     *  at queue admission, scheduler polls, worker pops and batch
     *  execution. Must outlive the server. */
    FaultInjector *faults = nullptr;

    /** Called as each request's promise resolves — with success=true
     *  on delivery, success=false (plus the error code) on any typed
     *  failure. The registry's per-model circuit breaker observes a
     *  model's health through this without polling metrics. Invoked
     *  from submitter and worker threads; must be thread-safe and
     *  must not call back into the server. */
    std::function<void(const RequestOutcome &)> outcome_hook;

    /** Accuracy class -> engine policy, indexed by AccuracyClass.
     *  High runs full-length Fused; Balanced runs Progressive at the
     *  calibrated margin; Fast runs the deterministic XNOR-popcount
     *  binary backend — the cheapest mode the engine has, trading
     *  SC-stream accuracy for single-pass latency. Margins/floors
     *  default to the QosPolicy derive sentinels: the server resolves
     *  them from the served network's calibrated Progressive config at
     *  construction (read the resolved table back via config().qos).
     *  Explicit values are kept as-is. */
    std::array<QosPolicy, kAccuracyClasses> qos = {
        QosPolicy{core::EngineMode::Fused, 0.0, 0},
        QosPolicy{core::EngineMode::Progressive},
        QosPolicy{core::EngineMode::Binary, 0.0, 0},
    };
};

class InferenceServer
{
  public:
    /**
     * @param net   shared, already-constructed engine; predictWith()
     *              is thread-safe, so one network serves all workers
     * @param cfg   batching bounds / QoS table
     * @param clock injected time source; null uses the steady clock.
     *              Must outlive the server.
     */
    explicit InferenceServer(const core::ScNetwork &net,
                             ServerConfig cfg = {},
                             const ClockSource *clock = nullptr);

    /** Runs shutdown(). */
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /**
     * Enqueue one image for classification. Never blocks on compute
     * and never blocks on overload either: admission control fails
     * the returned future immediately with a typed ServeError —
     * ShutDown after shutdown()/close, QueueFull when the class queue
     * is at capacity — instead of growing the queue without bound.
     */
    std::future<InferenceResult> submit(nn::Tensor image,
                                        RequestOptions opts = {});

    /** A submitted request plus its cancellation handle. */
    struct Submission
    {
        std::future<InferenceResult> result;
        std::shared_ptr<CancelToken> cancel;
    };

    /**
     * submit() with a cancellation token: cancel->cancel() makes the
     * request stop cooperatively — failed with ServeError(Cancelled)
     * before compute if still queued, stopped at the next segment
     * boundary if already in flight (batch-mates are unaffected;
     * their streams are bit-identical either way).
     */
    Submission submitCancellable(nn::Tensor image,
                                 RequestOptions opts = {});

    /**
     * Block until every accepted request has been answered (partial
     * batches already close at once). Intake stays open — a server
     * can be drained between load phases and keep serving.
     */
    void drain();

    /** Stop intake, serve the backlog, join workers. Idempotent. */
    void shutdown();

    /** Point-in-time metrics fold (thread-safe). */
    MetricsSnapshot metricsSnapshot() const { return metrics_.snapshot(); }

    /** Requests accepted but not yet answered. */
    size_t outstanding() const;

    const ServerConfig &config() const { return cfg_; }

  private:
    std::future<InferenceResult>
    submitImpl(nn::Tensor image, RequestOptions opts,
               std::shared_ptr<CancelToken> token);
    void workerLoop();
    void runBatch(ClosedBatch &&batch);
    /** Resolve a request's promise with a typed error; records the
     *  matching metric and releases its outstanding slot. */
    void failRequest(PendingRequest &req, ServeErrorCode code,
                     const char *what);
    ThreadPool &computePool() const;

    const core::ScNetwork &net_;
    ServerConfig cfg_;
    SteadyClock fallback_clock_;
    const ClockSource *clock_;
    RequestQueue queue_;
    ServerMetrics metrics_;
    std::vector<std::thread> workers_;

    std::atomic<uint64_t> next_id_{0};

    mutable std::mutex state_mutex_;
    std::condition_variable idle_cv_;
    size_t outstanding_ = 0;
    bool shut_down_ = false;

    std::mutex estimate_mutex_;
    std::array<double, kAccuracyClasses> estimate_ms_{};
};

} // namespace serve
} // namespace scdcnn

#endif // SCDCNN_SERVE_SERVER_H
