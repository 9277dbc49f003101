#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"
#include "obs/trace.h"

namespace scdcnn {
namespace serve {

namespace {

double
toMs(ClockSource::Duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

uint64_t
toTraceNs(ClockSource::Duration d)
{
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(d)
            .count();
    return ns > 0 ? static_cast<uint64_t>(ns) : 0;
}

} // namespace

InferenceServer::InferenceServer(const core::ScNetwork &net,
                                 ServerConfig cfg,
                                 const ClockSource *clock)
    : net_(net), cfg_(cfg),
      clock_(clock != nullptr ? clock : &fallback_clock_),
      queue_(cfg_.limits, clock_, cfg_.faults)
{
    // Resolve the QoS derive sentinels from the served network's
    // calibrated Progressive knobs: Balanced inherits them; a Fast
    // policy overridden to Progressive gets half the margin and a
    // quarter of the floor (the default Fast policy is Binary, whose
    // explicit zeros skip resolution).
    const core::ScNetworkConfig &ncfg = net_.config();
    for (size_t c = 0; c < kAccuracyClasses; ++c) {
        QosPolicy &q = cfg_.qos[c];
        const bool fast =
            static_cast<AccuracyClass>(c) == AccuracyClass::Fast;
        if (q.progressive_margin < 0.0)
            q.progressive_margin = fast ? ncfg.progressive_margin / 2
                                        : ncfg.progressive_margin;
        if (q.progressive_min_bits == QosPolicy::kDeriveMinBits)
            q.progressive_min_bits = fast
                                         ? ncfg.progressive_min_bits / 4
                                         : ncfg.progressive_min_bits;
    }
    const size_t n_workers = cfg_.batch_workers == 0
                                 ? 1
                                 : cfg_.batch_workers;
    workers_.reserve(n_workers);
    for (size_t i = 0; i < n_workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

InferenceServer::~InferenceServer() { shutdown(); }

ThreadPool &
InferenceServer::computePool() const
{
    return cfg_.compute_pool != nullptr ? *cfg_.compute_pool
                                        : ThreadPool::global();
}

std::future<InferenceResult>
InferenceServer::submit(nn::Tensor image, RequestOptions opts)
{
    return submitImpl(std::move(image), opts, nullptr);
}

InferenceServer::Submission
InferenceServer::submitCancellable(nn::Tensor image, RequestOptions opts)
{
    Submission s;
    s.cancel = std::make_shared<CancelToken>();
    s.result = submitImpl(std::move(image), opts, s.cancel);
    return s;
}

std::future<InferenceResult>
InferenceServer::submitImpl(nn::Tensor image, RequestOptions opts,
                            std::shared_ptr<CancelToken> token)
{
    PendingRequest req;
    req.id = next_id_.fetch_add(1);
    req.image = std::move(image);
    req.opts = opts;
    req.seed = opts.seed.has_value()
                   ? *opts.seed
                   : cfg_.base_seed + req.id * 7919;
    req.submitted = clock_->now();
    if (obs::armed())
        obs::TraceRecorder::instance().asyncBegin(
            obs::SpanName::Request, req.id, cfg_.trace_tag,
            static_cast<uint16_t>(opts.accuracy), req.id);
    if (opts.deadline.count() > 0) {
        req.deadline = req.submitted + opts.deadline;
        if (cfg_.cancel_on_deadline && token == nullptr)
            token = std::make_shared<CancelToken>();
        if (cfg_.cancel_on_deadline)
            token->armDeadline(clock_, *req.deadline);
    }
    req.cancel = std::move(token);
    std::future<InferenceResult> fut = req.promise.get_future();

    {
        std::lock_guard<std::mutex> lk(state_mutex_);
        ++outstanding_;
    }
    metrics_.recordSubmit();
    // Admission control: push() consumes the payload only on accept,
    // so on a refusal the promise is still ours to fail — the caller
    // gets an immediately-ready future with a typed error, never a
    // hanging one and never an unbounded queue.
    const AdmitResult admitted = queue_.push(std::move(req));
    if (admitted != AdmitResult::Accepted) {
        const ServeErrorCode code = admitted == AdmitResult::Closed
                                        ? ServeErrorCode::ShutDown
                                        : ServeErrorCode::QueueFull;
        metrics_.recordReject(code);
        failRequest(req, code,
                    code == ServeErrorCode::ShutDown
                        ? "InferenceServer is shut down"
                        : "request queue at capacity");
    }
    return fut;
}

void
InferenceServer::failRequest(PendingRequest &req, ServeErrorCode code,
                             const char *what)
{
    if (code == ServeErrorCode::Shed)
        metrics_.recordShed();
    else if (code == ServeErrorCode::Cancelled)
        metrics_.recordCancelled();
    if (obs::armed()) {
        obs::TraceRecorder &rec = obs::TraceRecorder::instance();
        const obs::SpanName why =
            code == ServeErrorCode::Shed ? obs::SpanName::Shed
            : code == ServeErrorCode::Cancelled
                ? obs::SpanName::Cancelled
                : obs::SpanName::Rejected;
        rec.instant(why, cfg_.trace_tag,
                    static_cast<uint16_t>(code), req.id);
        rec.asyncEnd(obs::SpanName::Request, req.id, cfg_.trace_tag,
                     static_cast<uint16_t>(req.opts.accuracy), req.id,
                     0);
    }
    // Hook before resolving the promise: a caller that observes the
    // failed future then sees breaker state that already reflects it.
    if (cfg_.outcome_hook) {
        RequestOutcome o;
        o.success = false;
        o.code = code;
        o.deadline_met = false;
        o.accuracy = req.opts.accuracy;
        cfg_.outcome_hook(o);
    }
    req.promise.set_exception(
        std::make_exception_ptr(ServeError(code, what)));
    {
        std::lock_guard<std::mutex> lk(state_mutex_);
        --outstanding_;
    }
    idle_cv_.notify_all();
}

void
InferenceServer::workerLoop()
{
    obs::TraceRecorder::instance().labelThisThread("batch-worker");
    for (;;) {
        PopOutcome out = queue_.popBatch();
        // Doomed requests swept from the queue: their deadline is
        // unmeetable even at the Fast estimate, so they are failed
        // here instead of wasting a batch slot.
        for (PendingRequest &req : out.shed)
            failRequest(req, ServeErrorCode::Shed,
                        "deadline unmeetable, request shed");
        if (out.batch.has_value()) {
            // Fault injection: a WorkerPop shot stalls this worker
            // between taking the batch and running it.
            if (cfg_.faults != nullptr)
                cfg_.faults->fire(FaultPoint::WorkerPop);
            runBatch(std::move(*out.batch));
        }
        if (out.closed)
            break;
    }
}

void
InferenceServer::runBatch(ClosedBatch &&batch)
{
    const size_t n = batch.items.size();
    metrics_.recordBatch(n, batch.depth_after, batch.reason);
    if (obs::armed()) {
        // The batch-close instant plus one queue-wait span per item.
        // Queue waits are measured on the server's injected clock
        // (admit -> close, the same duration recordResult later folds
        // into the queue_wait histogram) but end-anchored at the
        // recorder's clock, so they render correctly even under a
        // manual test clock.
        obs::TraceRecorder &rec = obs::TraceRecorder::instance();
        rec.instant(obs::SpanName::BatchClose, cfg_.trace_tag,
                    static_cast<uint16_t>(batch.reason), n,
                    batch.depth_after);
        const uint64_t end = rec.nowNs();
        for (const PendingRequest &item : batch.items) {
            const uint64_t wait_ns =
                toTraceNs(batch.closed_at - item.submitted);
            rec.spanComplete(obs::SpanName::QueueWait,
                             end - wait_ns, wait_ns, cfg_.trace_tag,
                             static_cast<uint16_t>(item.opts.accuracy),
                             item.id);
        }
    }
    const QosPolicy &policy = cfg_.qos[static_cast<size_t>(batch.cls)];
    const core::PredictOptions popts = policy.predictOptions();

    // Requests whose token already tripped are failed before any bits
    // are spent on them; the rest form the run set.
    std::vector<size_t> run;
    run.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        PendingRequest &item = batch.items[i];
        if (item.cancel != nullptr && item.cancel->cancelled())
            failRequest(item, ServeErrorCode::Cancelled,
                        "request cancelled before compute");
        else
            run.push_back(i);
    }
    if (run.empty())
        return; // everything cancelled; nothing to execute or measure

    // One forwardBatch call per closed micro-batch, singletons
    // included: every SC batch runs the one weight-stationary driver
    // (each filter block's weights are streamed once for the whole
    // batch, and the layer work fans out across the compute pool), the
    // Binary class its per-image fan-out. The per-item seeds are
    // caller-chosen, hence the explicit-seeds overload. Per-item cancel
    // signals ride along so an in-flight request can stop at a segment
    // boundary without disturbing its batch-mates.
    const size_t n_run = run.size();
    std::vector<nn::Tensor> images;
    std::vector<uint64_t> seeds;
    std::vector<const core::CancelSignal *> cancels;
    images.reserve(n_run);
    seeds.reserve(n_run);
    cancels.reserve(n_run);
    bool any_cancelable = false;
    for (size_t idx : run) {
        const PendingRequest &item = batch.items[idx];
        images.push_back(item.image);
        seeds.push_back(item.seed);
        cancels.push_back(item.cancel.get());
        any_cancelable = any_cancelable || item.cancel != nullptr;
    }
    std::vector<core::ForwardInfo> infos;
    const ClockSource::TimePoint t0 = clock_->now();
    // Fault injection: a BatchExecute shot stalls inside the timed
    // window, so the measured service estimate inflates exactly as a
    // genuinely slow batch would.
    if (cfg_.faults != nullptr)
        cfg_.faults->fire(FaultPoint::BatchExecute);
    const std::vector<size_t> preds = net_.forwardBatch(
        images, seeds, popts, &computePool(), &infos,
        any_cancelable ? &cancels : nullptr);
    const ClockSource::TimePoint t1 = clock_->now();

    uint64_t bits_lo = infos[0].effective_bits;
    uint64_t bits_hi = bits_lo;
    for (const core::ForwardInfo &info : infos) {
        bits_lo = std::min<uint64_t>(bits_lo, info.effective_bits);
        bits_hi = std::max<uint64_t>(bits_hi, info.effective_bits);
    }
    metrics_.recordBatchExecution(popts.mode, bits_hi - bits_lo);
    if (obs::armed()) {
        obs::TraceRecorder &rec = obs::TraceRecorder::instance();
        const uint64_t dur_ns = toTraceNs(t1 - t0);
        rec.spanComplete(obs::SpanName::BatchCompute,
                         rec.nowNs() - dur_ns, dur_ns, cfg_.trace_tag,
                         static_cast<uint16_t>(batch.cls), n_run,
                         bits_hi);
    }

    // Feed the measured per-image service time back into the
    // scheduler's deadline-urgency estimate (EWMA smooths batch-size
    // and cache effects).
    {
        const double per_image_ms =
            toMs(t1 - t0) / static_cast<double>(n_run);
        std::lock_guard<std::mutex> lk(estimate_mutex_);
        double &e = estimate_ms_[static_cast<size_t>(batch.cls)];
        e = e == 0.0 ? per_image_ms : 0.7 * e + 0.3 * per_image_ms;
        queue_.setServiceEstimate(
            batch.cls,
            std::chrono::duration_cast<ClockSource::Duration>(
                std::chrono::duration<double, std::milli>(e)));
    }

    size_t delivered = 0;
    for (size_t j = 0; j < n_run; ++j) {
        PendingRequest &item = batch.items[run[j]];
        if (infos[j].cancelled) {
            // Stopped mid-stream at a segment boundary; the partial
            // result is discarded, the caller gets the typed error.
            failRequest(item, ServeErrorCode::Cancelled,
                        "request cancelled in flight");
            continue;
        }
        InferenceResult r;
        r.predicted = preds[j];
        r.scores = std::move(infos[j].scores);
        r.effective_bits = infos[j].effective_bits;
        r.early_exit = infos[j].early_exit;
        r.seed = item.seed;
        r.requested = item.opts.accuracy;
        r.served = batch.cls;
        r.degraded = batch.cls > item.opts.accuracy;
        r.deadline_met =
            !item.deadline.has_value() || t1 <= *item.deadline;
        r.batch_size = n;
        r.queue_ms = toMs(batch.closed_at - item.submitted);
        r.total_ms = toMs(t1 - item.submitted);
        metrics_.recordResult(r, item.deadline.has_value());
        // Hook before resolving the promise (see failRequest).
        if (cfg_.outcome_hook) {
            RequestOutcome o;
            o.success = true;
            o.deadline_met = r.deadline_met;
            o.accuracy = item.opts.accuracy;
            cfg_.outcome_hook(o);
        }
        if (obs::armed())
            obs::TraceRecorder::instance().asyncEnd(
                obs::SpanName::Request, item.id, cfg_.trace_tag,
                static_cast<uint16_t>(item.opts.accuracy), item.id,
                r.effective_bits);
        item.promise.set_value(std::move(r));
        ++delivered;
    }
    if (delivered > 0) {
        std::lock_guard<std::mutex> lk(state_mutex_);
        outstanding_ -= delivered;
    }
    idle_cv_.notify_all();
}

void
InferenceServer::drain()
{
    queue_.setFlush(true);
    {
        std::unique_lock<std::mutex> lk(state_mutex_);
        idle_cv_.wait(lk, [this] { return outstanding_ == 0; });
    }
    queue_.setFlush(false);
}

void
InferenceServer::shutdown()
{
    {
        std::lock_guard<std::mutex> lk(state_mutex_);
        if (shut_down_)
            return;
        shut_down_ = true;
    }
    queue_.close(); // stop intake; workers flush the backlog...
    for (auto &w : workers_)
        w.join(); // ...and exit on the closed-and-empty signal
    // A dedicated compute pool is quiesced without being destroyed,
    // so it can be handed to the next server. (The process-global
    // pool is shared with unrelated work and is left alone; our jobs
    // on it finished before the workers joined.)
    if (cfg_.compute_pool != nullptr)
        cfg_.compute_pool->drain();
}

size_t
InferenceServer::outstanding() const
{
    std::lock_guard<std::mutex> lk(state_mutex_);
    return outstanding_;
}

} // namespace serve
} // namespace scdcnn
