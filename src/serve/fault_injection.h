/**
 * @file
 * Deterministic fault-injection harness for the serving layer.
 *
 * Chaos tests need overload pathologies on demand — a stalled worker,
 * a clock that drifts, a batch that suddenly runs slow, a burst of
 * queue-full rejections — without sleeps-and-hope timing. The server,
 * scheduler and queue each expose one named FaultPoint; a test arms a
 * point for an exact number of shots and the hook fires that many
 * times, then disarms itself. Counters record what actually fired so
 * assertions are exact, and the stall action is pluggable so unit
 * tests can observe a "stall" without wall-clock cost.
 *
 * The injector is wiring-optional: a null injector pointer compiles
 * to a branch on nullptr at each hook, so production servers carry no
 * chaos machinery.
 */

#ifndef SCDCNN_SERVE_FAULT_INJECTION_H
#define SCDCNN_SERVE_FAULT_INJECTION_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>

#include "serve/clock.h"

namespace scdcnn {
namespace serve {

/** Where in the serving pipeline a fault can be injected. */
enum class FaultPoint : uint8_t
{
    QueueAdmit = 0,    //!< admission: force a queue-full rejection
    SchedulerPoll = 1, //!< scheduler: suppress one close decision
    WorkerPop = 2,     //!< worker: stall after taking a batch
    BatchExecute = 3,  //!< worker: stall inside the timed batch window
    ArtifactRead = 4,  //!< registry: corrupt the artifact bytes on read
    ModelLoad = 5,     //!< registry: stall inside artifact load/warmup
    SwapInstall = 6,   //!< registry: crash between load and swap
    BreakerProbe = 7,  //!< registry: force a half-open probe to fail
    ModelExecute = 8,  //!< registry: fail a routed request (poison)
};

/** Number of fault points (array sizing). */
constexpr size_t kFaultPoints = 9;

/** "queue_admit" / "scheduler_poll" / ... / "model_execute". */
const char *faultPointName(FaultPoint point);

/**
 * Shot-counted fault injector. arm(point, n) makes the next n fire()
 * calls at that point return true (consuming one shot each, CAS
 * decrement — exact under concurrent hooks); stall-type points also
 * block the caller for the armed duration via the stall function.
 *
 * Thread-safety: arm/disarm/fire/firedCount race freely. setStallFn
 * must happen-before concurrent fire() calls (install it before the
 * server starts, as with every other configuration hook).
 */
class FaultInjector
{
  public:
    using StallFn = std::function<void(std::chrono::microseconds)>;

    FaultInjector();

    /** Arm @p point for the next @p shots hits; @p stall is how long
     *  stall-type hooks block per hit (ignored by decision points). */
    void arm(FaultPoint point, uint32_t shots,
             std::chrono::microseconds stall =
                 std::chrono::microseconds{0});

    /** Drop any remaining shots at @p point. */
    void disarm(FaultPoint point);

    /**
     * Hook entry: consume one armed shot at @p point. Returns true
     * when the fault fires; stall-type points block for the armed
     * duration first. Callers with a null injector skip the call.
     */
    bool fire(FaultPoint point);

    /** Shots actually consumed at @p point since construction. */
    uint64_t firedCount(FaultPoint point) const;

    /** Shots still armed at @p point. */
    uint32_t armedCount(FaultPoint point) const;

    /** Replace the default sleep_for stall (tests: record, not wait). */
    void setStallFn(StallFn fn);

  private:
    struct Slot
    {
        std::atomic<uint32_t> armed{0};
        std::atomic<int64_t> stall_us{0};
        std::atomic<uint64_t> fired{0};
    };

    Slot slots_[kFaultPoints];
    StallFn stall_;
};

/**
 * Clock-skew fault: wraps a base clock and offsets every reading by a
 * settable amount. Chaos tests jump the skew mid-run to model a clock
 * step and assert the scheduler degrades (expedites/sheds) instead of
 * wedging.
 */
class SkewedClock final : public ClockSource
{
  public:
    /** @p base must outlive the wrapper. */
    explicit SkewedClock(const ClockSource *base) : base_(base) {}

    TimePoint now() const override
    {
        return base_->now() + std::chrono::microseconds(skew_us_.load(
                                  std::memory_order_relaxed));
    }

    void setSkew(std::chrono::microseconds skew)
    {
        skew_us_.store(skew.count(), std::memory_order_relaxed);
    }

    std::chrono::microseconds skew() const
    {
        return std::chrono::microseconds(
            skew_us_.load(std::memory_order_relaxed));
    }

  private:
    const ClockSource *base_;
    std::atomic<int64_t> skew_us_{0};
};

} // namespace serve
} // namespace scdcnn

#endif // SCDCNN_SERVE_FAULT_INJECTION_H
