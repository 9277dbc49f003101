/**
 * @file
 * Lock-cheap serving metrics: latency histograms (p50/p95/p99),
 * queue-depth and batch-size distributions, QoS counters — every
 * record is a handful of relaxed atomic increments, so the serving
 * hot path never takes a lock for accounting. snapshot() folds the
 * counters into plain values and toJson() renders the snapshot the
 * way the bench and the demo publish it.
 */

#ifndef SCDCNN_SERVE_METRICS_H
#define SCDCNN_SERVE_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "serve/request.h"
#include "serve/scheduler.h"

namespace scdcnn {
namespace serve {

/**
 * Fixed-footprint latency histogram: four linear sub-buckets per
 * power-of-two octave of microseconds (relative bucket error <= 1/8),
 * atomically incremented, no allocation after construction. Quantiles
 * interpolate linearly inside the landing bucket.
 */
class LatencyHistogram
{
  public:
    void record(double ms);

    struct Stats
    {
        uint64_t count = 0;
        double mean_ms = 0.0;
        double max_ms = 0.0;
        double p50_ms = 0.0;
        double p95_ms = 0.0;
        double p99_ms = 0.0;
    };

    Stats stats() const;

  private:
    static constexpr size_t kBuckets = 128;

    static size_t bucketFor(uint64_t us);
    static double bucketLowUs(size_t bucket);
    static double bucketHighUs(size_t bucket);

    std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_us_{0};
    std::atomic<uint64_t> max_us_{0};
};

/** Point-in-time fold of all serving counters. */
struct MetricsSnapshot
{
    /** toJson() schema version, bumped on any rename or semantic
     *  change of an existing field (additions don't bump it).
     *  v2: "queue" histogram renamed "queue_wait" (admit -> batch
     *  close, the same duration traces report as queue_wait spans);
     *  schema_version and phase_profile added. v3: the two
     *  batch-kernel vs per-image execution counters removed (every SC
     *  batch runs one driver; batches_by_mode carries the per-mode
     *  split). */
    static constexpr uint32_t kSchemaVersion = 3;

    uint64_t submitted = 0;
    uint64_t completed = 0;
    /** Completed with their deadline met (undeadlined requests always
     *  count) — the goodput numerator. */
    uint64_t good_completed = 0;
    uint64_t rejected = 0;            //!< admission refusals, total
    uint64_t rejected_queue_full = 0; //!< class queue at capacity
    uint64_t rejected_shutdown = 0;   //!< submitted after shutdown
    uint64_t shed = 0;      //!< dropped from queue (deadline doomed)
    uint64_t cancelled = 0; //!< stopped in flight (token/deadline)
    uint64_t batches = 0;
    /** executed micro-batches per engine mode, indexed like
     *  core::EngineMode (Fused, Reference, Progressive, Binary) —
     *  which QoS policy actually ran each batch. */
    std::array<uint64_t, 4> batches_by_mode{};
    uint64_t early_exits = 0;
    uint64_t degraded = 0;
    uint64_t deadline_missed = 0;
    uint64_t deadline_total = 0; //!< completed requests that had one
    double avg_effective_bits = 0.0;
    /** Mean and worst per-batch spread (max - min) of the consumed
     *  effective bits across one micro-batch's images: 0 for
     *  full-precision batches, > 0 when Progressive early exit let
     *  images leave the stream at different depths. */
    double avg_effective_bits_spread = 0.0;
    uint64_t max_effective_bits_spread = 0;
    double avg_batch_size = 0.0;
    double early_exit_rate = 0.0; //!< of completed
    LatencyHistogram::Stats total_latency;
    LatencyHistogram::Stats queue_latency;
    /** batch-size distribution; index i = batches of size i, the last
     *  slot aggregates everything >= its index. */
    std::array<uint64_t, 65> batch_size_counts{};
    /** close-reason counts indexed like CloseReason. */
    std::array<uint64_t, 4> close_reasons{};
    /** queue depth observed at batch close; same clamped indexing. */
    std::array<uint64_t, 65> queue_depth_counts{};
    /** deepest queue observed at any batch close — with bounded
     *  admission this stays under classes * max_queue_per_class. */
    uint64_t max_queue_depth = 0;

    /** Process-wide tracing aggregate (count/total/max/p99 per span
     *  kind) captured from obs::TraceRecorder at snapshot time; empty
     *  unless tracing has been armed. */
    std::vector<obs::PhaseProfileEntry> phase_profile;

    /** Render as a JSON object string. */
    std::string toJson() const;
};

/** printf-append onto a JSON string under construction — the shared
 *  primitive behind every toJson() in the serving layer (metrics,
 *  registry snapshots, the bench's scenario records). */
void jsonAppendf(std::string &out, const char *fmt, ...);

/** Append one latency-stats JSON object ("name": {count, mean, ...}). */
void jsonAppendLatency(std::string &out, const char *name,
                       const LatencyHistogram::Stats &s);

class ServerMetrics
{
  public:
    void recordSubmit() { submitted_.fetch_add(1); }

    /** One admission refusal (QueueFull or ShutDown). */
    void recordReject(ServeErrorCode code)
    {
        rejected_.fetch_add(1);
        if (code == ServeErrorCode::QueueFull)
            rejected_queue_full_.fetch_add(1);
        else if (code == ServeErrorCode::ShutDown)
            rejected_shutdown_.fetch_add(1);
    }

    /** One queued request dropped by the doomed-deadline sweep. */
    void recordShed() { shed_.fetch_add(1); }

    /** One request stopped by cooperative cancellation. */
    void recordCancelled() { cancelled_.fetch_add(1); }

    /** One closed micro-batch: its size, the queue depth left behind,
     *  and why it closed. */
    void recordBatch(size_t batch_size, size_t depth_after,
                     CloseReason reason);

    /** One executed micro-batch, after the forward pass: the engine
     *  mode its QoS policy selected, and the spread
     *  (max - min) of the images' consumed effective bits — the
     *  dispersion Progressive early exit introduces. */
    void recordBatchExecution(core::EngineMode mode, uint64_t bits_spread);

    /** One finished request (also feeds the latency histograms). */
    void recordResult(const InferenceResult &result, bool had_deadline);

    MetricsSnapshot snapshot() const;

  private:
    static constexpr size_t kSizeSlots = 65;

    std::atomic<uint64_t> submitted_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> good_completed_{0};
    std::atomic<uint64_t> rejected_{0};
    std::atomic<uint64_t> rejected_queue_full_{0};
    std::atomic<uint64_t> rejected_shutdown_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> cancelled_{0};
    std::atomic<uint64_t> max_queue_depth_{0};
    std::atomic<uint64_t> batches_{0};
    std::array<std::atomic<uint64_t>, 4> batches_by_mode_{};
    std::atomic<uint64_t> bits_spread_sum_{0};
    std::atomic<uint64_t> bits_spread_max_{0};
    std::atomic<uint64_t> early_exits_{0};
    std::atomic<uint64_t> degraded_{0};
    std::atomic<uint64_t> deadline_missed_{0};
    std::atomic<uint64_t> deadline_total_{0};
    std::atomic<uint64_t> effective_bits_sum_{0};
    std::atomic<uint64_t> batch_image_sum_{0};
    std::array<std::atomic<uint64_t>, kSizeSlots> batch_sizes_{};
    std::array<std::atomic<uint64_t>, kSizeSlots> queue_depths_{};
    std::array<std::atomic<uint64_t>, 4> close_reasons_{};
    LatencyHistogram total_latency_;
    LatencyHistogram queue_latency_;
};

} // namespace serve
} // namespace scdcnn

#endif // SCDCNN_SERVE_METRICS_H
