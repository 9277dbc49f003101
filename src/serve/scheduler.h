/**
 * @file
 * Dynamic micro-batching scheduler of the serving layer.
 *
 * Pure decision logic, no threads and no real clock: callers push
 * request metadata (id, accuracy class, enqueue time, optional
 * deadline) and poll with an explicit "now". The close is
 * work-conserving: a poll comes from an idle batch worker, so it
 * closes a batch whenever anything is queued, choosing by priority:
 *
 *   Expedited — a deadlined request's remaining budget no longer
 *               covers its precision class (plus max_queue_delay of
 *               slack); it and every other urgent request are closed
 *               at the cheapest degraded class among them.
 *   Full      — some class queue reached max_batch.
 *   Idle      — otherwise the oldest head's class closes at once, up
 *               to max_batch (the RequestQueue relabels it Drain once
 *               intake is closed for shutdown).
 *
 * Batches therefore only grow past one request from work that
 * arrived while every worker was busy, which is also when the batch
 * path's weight reuse pays off; a lone request never waits for
 * batch-mates that cannot come.
 *
 * Requests are FIFO within a class; across classes the oldest head
 * wins, so no class starves. Batches never mix accuracy classes
 * (one micro-batch runs the engine with one PredictOptions), which is
 * the compatibility grouping the server relies on. All time enters
 * through parameters, so every decision is deterministically testable
 * with a ManualClock.
 */

#ifndef SCDCNN_SERVE_SCHEDULER_H
#define SCDCNN_SERVE_SCHEDULER_H

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "serve/clock.h"
#include "serve/request.h"

namespace scdcnn {
namespace serve {

/** Micro-batching bounds plus the overload-control knobs. */
struct SchedulerLimits
{
    size_t max_batch = 8;

    /**
     * Deadline-urgency slack: a deadlined request turns urgent (and
     * expedites) one service estimate plus this much before its
     * deadline. No close ever waits on it.
     */
    std::chrono::microseconds max_queue_delay{2000};

    /**
     * Admission bound: queued-but-unbatched requests allowed per
     * accuracy class. A push beyond this is rejected fast with a
     * typed error instead of growing the queue without bound. Large
     * enough by default that only genuine overload trips it.
     */
    size_t max_queue_per_class = 1024;

    /**
     * Load shedding: drop queued requests whose deadline is already
     * unmeetable even at the Fast estimate (see sweepDoomed) before
     * compute is wasted on them. On by default; tests that want to
     * observe pure deadline degradation turn it off.
     */
    bool shed_doomed = true;
};

/** Why a batch closed. */
enum class CloseReason : uint8_t
{
    Full,
    Idle,
    Expedited,
    Drain,
};

/** "full" / "idle" / "expedited" / "drain". */
const char *closeReasonName(CloseReason reason);

/** One closed micro-batch: request ids in service order plus the
 *  accuracy class the whole batch is served at. */
struct BatchPlan
{
    std::vector<uint64_t> ids;
    AccuracyClass cls = AccuracyClass::Balanced;
    CloseReason reason = CloseReason::Full;
};

class BatchScheduler
{
  public:
    using TimePoint = ClockSource::TimePoint;
    using Duration = ClockSource::Duration;

    explicit BatchScheduler(SchedulerLimits limits);

    /** Enqueue request metadata. @p deadline is absolute (nullopt =
     *  none); requests must be pushed in submit order per caller for
     *  the FIFO guarantee to mean anything. */
    void push(uint64_t id, AccuracyClass cls, TimePoint enqueued,
              std::optional<TimePoint> deadline);

    /** Close and return the next batch at @p now, or nullopt when
     *  nothing is queued (or a SchedulerPoll fault suppressed the
     *  close). */
    std::optional<BatchPlan> poll(TimePoint now);

    /** Queued requests across all classes. */
    size_t depth() const;

    /** Queued requests in one class (admission-control bound check). */
    size_t classDepth(AccuracyClass cls) const;

    /**
     * Load shedding: remove and return the ids of every queued request
     * whose deadline can no longer be met even at the Fast-class
     * service estimate — computing them would only produce late
     * results. Swept cheapest class first (Fast, Balanced, then High)
     * so High-class work sheds last. With a cold (zero) estimate only
     * requests whose deadline has already passed are doomed.
     */
    std::vector<uint64_t> sweepDoomed(TimePoint now);

    /**
     * Fault-injection hook: when set, a SchedulerPoll shot suppresses
     * one close decision (poll returns nullopt as if nothing were
     * due). @p faults may be nullptr and must outlive the scheduler.
     */
    void setFaultInjector(class FaultInjector *faults)
    {
        faults_ = faults;
    }

    /**
     * Per-image service-time estimate for a class, used by the
     * deadline urgency test. The server feeds an EWMA of measured
     * batch times back in; tests set it explicitly. Zero (the initial
     * state) is a conservative "free" estimate: only requests within
     * one max_queue_delay of their deadline count as urgent.
     */
    void setServiceEstimate(AccuracyClass cls, Duration per_image);
    Duration serviceEstimate(AccuracyClass cls) const;

    const SchedulerLimits &limits() const { return limits_; }

  private:
    struct Item
    {
        uint64_t id = 0;
        TimePoint enqueued;
        std::optional<TimePoint> deadline;
        AccuracyClass requested = AccuracyClass::Balanced;
    };

    /** The instant this item becomes urgent (max() when undeadlined). */
    TimePoint urgentAt(const Item &item) const;

    /** Most accurate class whose estimated service still fits the
     *  item's remaining budget at @p now (Fast when none does). */
    AccuracyClass degradedClass(const Item &item, TimePoint now) const;

    std::optional<BatchPlan> closeExpedited(TimePoint now);

    SchedulerLimits limits_;
    std::array<std::deque<Item>, kAccuracyClasses> queues_;
    std::array<Duration, kAccuracyClasses> estimate_{};
    class FaultInjector *faults_ = nullptr;
};

} // namespace serve
} // namespace scdcnn

#endif // SCDCNN_SERVE_SCHEDULER_H
