/**
 * @file
 * Thread-safe intake queue of the serving layer.
 *
 * Producers push fully-formed pending requests (image + promise +
 * QoS metadata); consumer threads block in popBatch() only while the
 * queue is empty. A consumer that finds work gets a batch at once:
 * the BatchScheduler's close is work-conserving, so nothing waits on
 * a timer. The queue owns the request payloads; the scheduler only
 * ever sees ids and times, keeping the decision logic pure.
 */

#ifndef SCDCNN_SERVE_REQUEST_QUEUE_H
#define SCDCNN_SERVE_REQUEST_QUEUE_H

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "nn/tensor.h"
#include "serve/clock.h"
#include "serve/fault_injection.h"
#include "serve/request.h"
#include "serve/scheduler.h"

namespace scdcnn {
namespace serve {

/** One submitted, not-yet-served request with its payload. */
struct PendingRequest
{
    uint64_t id = 0;
    nn::Tensor image;
    RequestOptions opts;
    uint64_t seed = 0; //!< resolved (explicit or id-derived)
    std::promise<InferenceResult> promise;
    ClockSource::TimePoint submitted;
    std::optional<ClockSource::TimePoint> deadline; //!< absolute
    std::shared_ptr<CancelToken> cancel;            //!< may be null
};

/** One micro-batch handed to a batch worker, payloads included. */
struct ClosedBatch
{
    std::vector<PendingRequest> items; //!< service order
    AccuracyClass cls = AccuracyClass::Balanced;
    CloseReason reason = CloseReason::Full;
    size_t depth_after = 0; //!< queue depth left behind
    ClockSource::TimePoint closed_at;
};

/** Admission decision for one push(). */
enum class AdmitResult : uint8_t
{
    Accepted = 0,
    Closed = 1,    //!< intake closed (drain/shutdown)
    QueueFull = 2, //!< class queue at capacity (admission control)
};

/**
 * What one popBatch() wait resolved to: a closed micro-batch to run,
 * doomed requests swept out of the queue (the caller owns failing
 * their promises), or the closed-and-empty exit signal. batch and
 * shed can both be populated in one outcome.
 */
struct PopOutcome
{
    std::optional<ClosedBatch> batch;
    std::vector<PendingRequest> shed;
    bool closed = false;
};

class RequestQueue
{
  public:
    /** @p clock must outlive the queue; @p faults is the optional
     *  chaos hook (nullptr in production) and must outlive it too. */
    RequestQueue(SchedulerLimits limits, const ClockSource *clock,
                 FaultInjector *faults = nullptr);

    /**
     * Bounded admission: enqueue iff intake is open and the request's
     * class queue is under max_queue_per_class. On rejection the
     * payload is NOT consumed — the caller keeps the promise and
     * fails it with the matching typed ServeError.
     */
    AdmitResult push(PendingRequest &&req);

    /**
     * Block until something needs the caller's attention and return
     * it: a closed micro-batch, doomed requests shed from the queue
     * (deadline unmeetable even at the Fast estimate — dropped before
     * compute is wasted), or closed==true once the queue is closed
     * and empty — the worker-loop exit signal. Safe to call from
     * several consumer threads.
     */
    PopOutcome popBatch();

    /** Stop intake; queued requests still drain as batches (partial
     *  ones labelled Drain). */
    void close();

    /** Queued (not yet batched) requests. */
    size_t depth() const;

    /** Feed a measured per-image service time into the scheduler's
     *  deadline-urgency estimate. */
    void setServiceEstimate(AccuracyClass cls,
                            ClockSource::Duration per_image);

  private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    const ClockSource *clock_;
    FaultInjector *faults_;
    BatchScheduler scheduler_;
    std::unordered_map<uint64_t, PendingRequest> payload_;
    bool closed_ = false;
};

} // namespace serve
} // namespace scdcnn

#endif // SCDCNN_SERVE_REQUEST_QUEUE_H
