/**
 * @file
 * Test helper: hold an InferenceServer's batch worker inside the
 * batches it pops.
 *
 * The batch close is work-conserving — an idle worker takes whatever
 * is queued at once — so a request only waits in the queue while every
 * worker is busy. Tests that need queued requests (full batches,
 * shedding, expediting, cancellation while queued) wire this hold's
 * FaultInjector into the server: each armed WorkerPop shot parks the
 * worker between taking a batch and running it until the test calls
 * release(), so whatever the test submits meanwhile queues up behind
 * it.
 */

#ifndef SCDCNN_TESTS_WORKER_HOLD_H
#define SCDCNN_TESTS_WORKER_HOLD_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "serve/fault_injection.h"

namespace scdcnn {

class WorkerHold
{
  public:
    /** Arm @p holds WorkerPop shots: the worker's next @p holds popped
     *  batches each wait for one release(). Declare the hold before
     *  the server it is wired into, so it outlives the server. */
    explicit WorkerHold(uint32_t holds = 1)
    {
        faults.setStallFn([this](std::chrono::microseconds) {
            std::unique_lock<std::mutex> lk(mutex_);
            const uint32_t mine = ++held_;
            cv_.notify_all();
            cv_.wait(lk, [&] { return released_ >= mine; });
        });
        arm(holds);
    }

    /** Arm @p holds more shots. Safe while the worker is idle on an
     *  empty queue: the next batch it pops is held. */
    void arm(uint32_t holds)
    {
        // A stall fires only with a non-zero duration; the stall
        // function ignores it and waits for release() instead.
        faults.arm(serve::FaultPoint::WorkerPop, holds,
                   std::chrono::microseconds(1));
    }

    /** Wait until the worker has entered its @p n-th hold; false if
     *  it has not within a minute (the test fails rather than hangs). */
    bool awaitHeld(uint32_t n = 1)
    {
        std::unique_lock<std::mutex> lk(mutex_);
        return cv_.wait_for(lk, std::chrono::minutes(1),
                            [&] { return held_ >= n; });
    }

    /** Let the worker out of its oldest unreleased hold. */
    void release()
    {
        {
            std::lock_guard<std::mutex> lk(mutex_);
            ++released_;
        }
        cv_.notify_all();
    }

    serve::FaultInjector faults;

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    uint32_t held_ = 0;
    uint32_t released_ = 0;
};

} // namespace scdcnn

#endif // SCDCNN_TESTS_WORKER_HOLD_H
