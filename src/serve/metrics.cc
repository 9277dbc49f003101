#include "serve/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace scdcnn {
namespace serve {

size_t
LatencyHistogram::bucketFor(uint64_t us)
{
    if (us < 4)
        return static_cast<size_t>(us);
    const unsigned o = std::bit_width(us) - 1; // floor log2, >= 2
    const size_t sub = static_cast<size_t>((us >> (o - 2)) & 3);
    const size_t b = 4 + (static_cast<size_t>(o) - 2) * 4 + sub;
    return std::min(b, kBuckets - 1);
}

double
LatencyHistogram::bucketLowUs(size_t bucket)
{
    if (bucket < 4)
        return static_cast<double>(bucket);
    const size_t o = (bucket - 4) / 4 + 2;
    const size_t sub = (bucket - 4) % 4;
    return std::ldexp(1.0, static_cast<int>(o)) +
           static_cast<double>(sub) *
               std::ldexp(1.0, static_cast<int>(o) - 2);
}

double
LatencyHistogram::bucketHighUs(size_t bucket)
{
    if (bucket < 4)
        return static_cast<double>(bucket) + 1.0;
    const size_t o = (bucket - 4) / 4 + 2;
    return bucketLowUs(bucket) + std::ldexp(1.0, static_cast<int>(o) - 2);
}

void
LatencyHistogram::record(double ms)
{
    const auto us =
        static_cast<uint64_t>(std::max(0.0, std::round(ms * 1000.0)));
    buckets_[bucketFor(us)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
    uint64_t seen = max_us_.load(std::memory_order_relaxed);
    while (us > seen &&
           !max_us_.compare_exchange_weak(seen, us,
                                          std::memory_order_relaxed)) {
    }
}

LatencyHistogram::Stats
LatencyHistogram::stats() const
{
    Stats s;
    std::array<uint64_t, kBuckets> counts;
    for (size_t b = 0; b < kBuckets; ++b)
        counts[b] = buckets_[b].load(std::memory_order_relaxed);
    s.count = count_.load(std::memory_order_relaxed);
    if (s.count == 0)
        return s;
    s.mean_ms = static_cast<double>(
                    sum_us_.load(std::memory_order_relaxed)) /
                static_cast<double>(s.count) / 1000.0;
    s.max_ms = static_cast<double>(
                   max_us_.load(std::memory_order_relaxed)) /
               1000.0;

    auto quantile = [&](double q) {
        const double target = q * static_cast<double>(s.count);
        uint64_t cum = 0;
        for (size_t b = 0; b < kBuckets; ++b) {
            if (counts[b] == 0)
                continue;
            const double before = static_cast<double>(cum);
            cum += counts[b];
            if (static_cast<double>(cum) >= target) {
                const double frac =
                    std::clamp((target - before) /
                                   static_cast<double>(counts[b]),
                               0.0, 1.0);
                const double lo = bucketLowUs(b), hi = bucketHighUs(b);
                return (lo + frac * (hi - lo)) / 1000.0;
            }
        }
        return s.max_ms;
    };
    s.p50_ms = quantile(0.50);
    s.p95_ms = quantile(0.95);
    s.p99_ms = quantile(0.99);
    return s;
}

void
ServerMetrics::recordBatch(size_t batch_size, size_t depth_after,
                           CloseReason reason)
{
    batches_.fetch_add(1, std::memory_order_relaxed);
    batch_image_sum_.fetch_add(batch_size, std::memory_order_relaxed);
    batch_sizes_[std::min(batch_size, kSizeSlots - 1)].fetch_add(
        1, std::memory_order_relaxed);
    queue_depths_[std::min(depth_after, kSizeSlots - 1)].fetch_add(
        1, std::memory_order_relaxed);
    uint64_t seen = max_queue_depth_.load(std::memory_order_relaxed);
    while (depth_after > seen &&
           !max_queue_depth_.compare_exchange_weak(
               seen, depth_after, std::memory_order_relaxed)) {
    }
    close_reasons_[static_cast<size_t>(reason)].fetch_add(
        1, std::memory_order_relaxed);
}

void
ServerMetrics::recordBatchExecution(core::EngineMode mode,
                                    uint64_t bits_spread)
{
    batches_by_mode_[static_cast<size_t>(mode)].fetch_add(
        1, std::memory_order_relaxed);
    bits_spread_sum_.fetch_add(bits_spread, std::memory_order_relaxed);
    uint64_t seen = bits_spread_max_.load(std::memory_order_relaxed);
    while (bits_spread > seen &&
           !bits_spread_max_.compare_exchange_weak(
               seen, bits_spread, std::memory_order_relaxed)) {
    }
}

void
ServerMetrics::recordResult(const InferenceResult &result,
                            bool had_deadline)
{
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (!had_deadline || result.deadline_met)
        good_completed_.fetch_add(1, std::memory_order_relaxed);
    effective_bits_sum_.fetch_add(result.effective_bits,
                                  std::memory_order_relaxed);
    if (result.early_exit)
        early_exits_.fetch_add(1, std::memory_order_relaxed);
    if (result.degraded)
        degraded_.fetch_add(1, std::memory_order_relaxed);
    if (had_deadline) {
        deadline_total_.fetch_add(1, std::memory_order_relaxed);
        if (!result.deadline_met)
            deadline_missed_.fetch_add(1, std::memory_order_relaxed);
    }
    total_latency_.record(result.total_ms);
    queue_latency_.record(result.queue_ms);
}

MetricsSnapshot
ServerMetrics::snapshot() const
{
    MetricsSnapshot s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.good_completed = good_completed_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.rejected_queue_full =
        rejected_queue_full_.load(std::memory_order_relaxed);
    s.rejected_shutdown =
        rejected_shutdown_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.cancelled = cancelled_.load(std::memory_order_relaxed);
    s.max_queue_depth =
        max_queue_depth_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    for (size_t m = 0; m < s.batches_by_mode.size(); ++m)
        s.batches_by_mode[m] =
            batches_by_mode_[m].load(std::memory_order_relaxed);
    s.max_effective_bits_spread =
        bits_spread_max_.load(std::memory_order_relaxed);
    uint64_t executed = 0;
    for (const uint64_t n : s.batches_by_mode)
        executed += n;
    if (executed > 0)
        s.avg_effective_bits_spread =
            static_cast<double>(
                bits_spread_sum_.load(std::memory_order_relaxed)) /
            static_cast<double>(executed);
    s.early_exits = early_exits_.load(std::memory_order_relaxed);
    s.degraded = degraded_.load(std::memory_order_relaxed);
    s.deadline_missed = deadline_missed_.load(std::memory_order_relaxed);
    s.deadline_total = deadline_total_.load(std::memory_order_relaxed);
    if (s.completed > 0) {
        s.avg_effective_bits =
            static_cast<double>(
                effective_bits_sum_.load(std::memory_order_relaxed)) /
            static_cast<double>(s.completed);
        s.early_exit_rate = static_cast<double>(s.early_exits) /
                            static_cast<double>(s.completed);
    }
    if (s.batches > 0)
        s.avg_batch_size =
            static_cast<double>(
                batch_image_sum_.load(std::memory_order_relaxed)) /
            static_cast<double>(s.batches);
    for (size_t i = 0; i < batch_sizes_.size(); ++i) {
        s.batch_size_counts[i] =
            batch_sizes_[i].load(std::memory_order_relaxed);
        s.queue_depth_counts[i] =
            queue_depths_[i].load(std::memory_order_relaxed);
    }
    for (size_t i = 0; i < close_reasons_.size(); ++i)
        s.close_reasons[i] =
            close_reasons_[i].load(std::memory_order_relaxed);
    s.total_latency = total_latency_.stats();
    s.queue_latency = queue_latency_.stats();
    s.phase_profile = obs::TraceRecorder::instance().profile();
    return s;
}

void
jsonAppendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out += buf;
}

void
jsonAppendLatency(std::string &out, const char *name,
                  const LatencyHistogram::Stats &s)
{
    jsonAppendf(out,
                "\"%s\": {\"count\": %llu, \"mean_ms\": %.3f, "
                "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
                "\"max_ms\": %.3f}",
                name, static_cast<unsigned long long>(s.count),
                s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms);
}

namespace {

constexpr auto appendf = jsonAppendf;
constexpr auto appendLatency = jsonAppendLatency;

template <size_t N>
void
appendCounts(std::string &out, const char *name,
             const std::array<uint64_t, N> &counts)
{
    appendf(out, "\"%s\": {", name);
    bool first = true;
    for (size_t i = 0; i < N; ++i) {
        if (counts[i] == 0)
            continue;
        appendf(out, "%s\"%zu\": %llu", first ? "" : ", ", i,
                static_cast<unsigned long long>(counts[i]));
        first = false;
    }
    out += "}";
}

} // namespace

std::string
MetricsSnapshot::toJson() const
{
    std::string out = "{";
    appendf(out, "\"schema_version\": %u, ", kSchemaVersion);
    appendf(out,
            "\"submitted\": %llu, \"completed\": %llu, "
            "\"good_completed\": %llu, \"rejected\": %llu, "
            "\"batches\": %llu, ",
            static_cast<unsigned long long>(submitted),
            static_cast<unsigned long long>(completed),
            static_cast<unsigned long long>(good_completed),
            static_cast<unsigned long long>(rejected),
            static_cast<unsigned long long>(batches));
    appendf(out,
            "\"rejected_queue_full\": %llu, "
            "\"rejected_shutdown\": %llu, \"shed\": %llu, "
            "\"cancelled\": %llu, \"max_queue_depth\": %llu, ",
            static_cast<unsigned long long>(rejected_queue_full),
            static_cast<unsigned long long>(rejected_shutdown),
            static_cast<unsigned long long>(shed),
            static_cast<unsigned long long>(cancelled),
            static_cast<unsigned long long>(max_queue_depth));
    appendf(out,
            "\"early_exits\": %llu, \"early_exit_rate\": %.4f, "
            "\"degraded\": %llu, \"deadline_missed\": %llu, "
            "\"deadline_total\": %llu, ",
            static_cast<unsigned long long>(early_exits),
            early_exit_rate, static_cast<unsigned long long>(degraded),
            static_cast<unsigned long long>(deadline_missed),
            static_cast<unsigned long long>(deadline_total));
    appendf(out,
            "\"avg_effective_bits\": %.1f, \"avg_batch_size\": %.2f, ",
            avg_effective_bits, avg_batch_size);
    appendf(out,
            "\"avg_effective_bits_spread\": %.1f, "
            "\"max_effective_bits_spread\": %llu, ",
            avg_effective_bits_spread,
            static_cast<unsigned long long>(max_effective_bits_spread));
    appendf(out,
            "\"batches_by_mode\": {\"fused\": %llu, \"reference\": %llu, "
            "\"progressive\": %llu, \"binary\": %llu}, ",
            static_cast<unsigned long long>(batches_by_mode[0]),
            static_cast<unsigned long long>(batches_by_mode[1]),
            static_cast<unsigned long long>(batches_by_mode[2]),
            static_cast<unsigned long long>(batches_by_mode[3]));
    appendLatency(out, "latency", total_latency);
    out += ", ";
    // v2: queue-wait (admit -> batch close) as its own histogram
    // under its own name — the same per-request duration the tracer
    // emits as queue_wait spans, so metrics and traces tell one story.
    appendLatency(out, "queue_wait", queue_latency);
    out += ", ";
    appendCounts(out, "batch_sizes", batch_size_counts);
    out += ", ";
    appendCounts(out, "queue_depths", queue_depth_counts);
    appendf(out,
            ", \"close_reasons\": {\"full\": %llu, \"delay\": %llu, "
            "\"expedited\": %llu, \"drain\": %llu}",
            static_cast<unsigned long long>(close_reasons[0]),
            static_cast<unsigned long long>(close_reasons[1]),
            static_cast<unsigned long long>(close_reasons[2]),
            static_cast<unsigned long long>(close_reasons[3]));
    out += ", \"phase_profile\": {";
    for (size_t i = 0; i < phase_profile.size(); ++i) {
        const obs::PhaseProfileEntry &p = phase_profile[i];
        appendf(out,
                "%s\"%s\": {\"count\": %llu, \"total_ms\": %.3f, "
                "\"p99_ms\": %.3f, \"max_ms\": %.3f}",
                i > 0 ? ", " : "", obs::spanName(p.name),
                static_cast<unsigned long long>(p.count),
                static_cast<double>(p.total_ns) * 1e-6,
                static_cast<double>(p.p99_ns) * 1e-6,
                static_cast<double>(p.max_ns) * 1e-6);
    }
    out += "}}";
    return out;
}

} // namespace serve
} // namespace scdcnn
