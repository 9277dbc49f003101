#include "serve/request_queue.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace scdcnn {
namespace serve {

RequestQueue::RequestQueue(SchedulerLimits limits,
                           const ClockSource *clock,
                           FaultInjector *faults)
    : clock_(clock), faults_(faults), scheduler_(limits)
{
    SCDCNN_ASSERT(clock != nullptr, "RequestQueue needs a clock");
    scheduler_.setFaultInjector(faults);
}

AdmitResult
RequestQueue::push(PendingRequest &&req)
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (closed_)
            return AdmitResult::Closed;
        // Fault injection: a QueueAdmit shot rejects as if the class
        // queue were full — the queue-full burst chaos scenario.
        if (faults_ != nullptr &&
            faults_->fire(FaultPoint::QueueAdmit))
            return AdmitResult::QueueFull;
        if (scheduler_.classDepth(req.opts.accuracy) >=
            scheduler_.limits().max_queue_per_class)
            return AdmitResult::QueueFull;
        scheduler_.push(req.id, req.opts.accuracy, req.submitted,
                        req.deadline);
        payload_.emplace(req.id, std::move(req));
        if (obs::armed())
            obs::TraceRecorder::instance().counter(
                obs::SpanName::QueueDepth, scheduler_.depth());
    }
    cv_.notify_all();
    return AdmitResult::Accepted;
}

PopOutcome
RequestQueue::popBatch()
{
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
        const ClockSource::TimePoint now = clock_->now();
        PopOutcome out;
        // Shed doomed requests before closing anything, so an
        // expedited batch only ever carries salvageable work.
        for (uint64_t id : scheduler_.sweepDoomed(now)) {
            auto it = payload_.find(id);
            SCDCNN_ASSERT(it != payload_.end(),
                          "shed id %llu has no payload",
                          static_cast<unsigned long long>(id));
            out.shed.push_back(std::move(it->second));
            payload_.erase(it);
        }
        if (auto plan = scheduler_.poll(now)) {
            ClosedBatch batch;
            batch.cls = plan->cls;
            // Partial closes after close() are the shutdown flush.
            batch.reason = closed_ && plan->reason == CloseReason::Idle
                               ? CloseReason::Drain
                               : plan->reason;
            batch.closed_at = now;
            batch.items.reserve(plan->ids.size());
            for (uint64_t id : plan->ids) {
                auto it = payload_.find(id);
                SCDCNN_ASSERT(it != payload_.end(),
                              "scheduled id %llu has no payload",
                              static_cast<unsigned long long>(id));
                batch.items.push_back(std::move(it->second));
                payload_.erase(it);
            }
            batch.depth_after = scheduler_.depth();
            out.batch = std::move(batch);
            return out;
        }
        if (!out.shed.empty())
            return out;
        if (closed_ && scheduler_.depth() == 0) {
            out.closed = true;
            return out;
        }
        // The scheduler closes whenever anything is queued, so only an
        // empty queue waits; a close suppressed by a SchedulerPoll
        // fault retries at once (the fault has a finite shot count).
        if (scheduler_.depth() == 0)
            cv_.wait(lk);
    }
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        closed_ = true;
    }
    cv_.notify_all();
}

size_t
RequestQueue::depth() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return scheduler_.depth();
}

void
RequestQueue::setServiceEstimate(AccuracyClass cls,
                                 ClockSource::Duration per_image)
{
    std::lock_guard<std::mutex> lk(mutex_);
    scheduler_.setServiceEstimate(cls, per_image);
}

} // namespace serve
} // namespace scdcnn
