/**
 * @file
 * Pluggable time source for the serving layer.
 *
 * The scheduler's deadline decisions (urgency, shedding) and the
 * server's queue-wait and latency figures are time-driven, so they
 * read time through a ClockSource instead of calling std::chrono
 * directly: the server injects the steady clock, tests inject a
 * ManualClock and step it — every deadline decision becomes
 * deterministically testable without sleeps.
 */

#ifndef SCDCNN_SERVE_CLOCK_H
#define SCDCNN_SERVE_CLOCK_H

#include <chrono>
#include <mutex>

namespace scdcnn {
namespace serve {

/** Time source abstraction; TimePoint is steady-clock based so real
 *  and manual time share one arithmetic. */
class ClockSource
{
  public:
    using TimePoint = std::chrono::steady_clock::time_point;
    using Duration = std::chrono::steady_clock::duration;

    virtual ~ClockSource() = default;
    virtual TimePoint now() const = 0;
};

/** The real monotonic clock (production). */
class SteadyClock final : public ClockSource
{
  public:
    TimePoint now() const override
    {
        return std::chrono::steady_clock::now();
    }
};

/** Settable clock for deterministic scheduler tests: time moves only
 *  when the test advances it. */
class ManualClock final : public ClockSource
{
  public:
    explicit ManualClock(TimePoint start = TimePoint{}) : now_(start) {}

    TimePoint now() const override
    {
        std::lock_guard<std::mutex> lk(mutex_);
        return now_;
    }

    void advance(Duration by)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        now_ += by;
    }

    void set(TimePoint t)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        now_ = t;
    }

  private:
    mutable std::mutex mutex_;
    TimePoint now_;
};

} // namespace serve
} // namespace scdcnn

#endif // SCDCNN_SERVE_CLOCK_H
