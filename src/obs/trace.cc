#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <mutex>

namespace scdcnn::obs {

namespace detail {
std::atomic<bool> g_armed{false};
} // namespace detail

const char *
spanName(SpanName name)
{
    switch (name) {
    case SpanName::Encode: return "encode";
    case SpanName::InnerProduct: return "inner_product";
    case SpanName::Pooling: return "pooling";
    case SpanName::Activation: return "activation";
    case SpanName::Output: return "output";
    case SpanName::EarlyExit: return "early_exit";
    case SpanName::BatchCompact: return "batch_compact";
    case SpanName::Request: return "request";
    case SpanName::QueueWait: return "queue_wait";
    case SpanName::BatchClose: return "batch_close";
    case SpanName::BatchCompute: return "batch_compute";
    case SpanName::Shed: return "shed";
    case SpanName::Cancelled: return "cancelled";
    case SpanName::Rejected: return "rejected";
    case SpanName::Fault: return "fault";
    case SpanName::QueueDepth: return "queue_depth";
    case SpanName::Scenario: return "scenario";
    case SpanName::BinaryForward: return "binary_forward";
    case SpanName::kCount: break;
    }
    return "unknown";
}

namespace {

uint64_t
steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

constexpr size_t kNames = static_cast<size_t>(SpanName::kCount);
constexpr size_t kBuckets = 64; // log2-ns latency buckets

} // namespace

// One slot per event. The seqlock word is odd while a write is in
// flight; readers skip odd slots and retry-check after reading. Every
// word is an atomic accessed relaxed, so concurrent snapshot() is
// race-free (TSan-clean) even mid-overwrite — the seq recheck rejects
// torn payloads.
struct TraceRecorder::Ring
{
    struct Slot
    {
        std::atomic<uint64_t> seq{0};
        std::atomic<uint64_t> w[5] = {};
    };
    explicit Ring(uint16_t id) : tid(id), slots(kRingEvents) {}

    uint16_t tid;
    std::string label; // guarded by Impl::mu
    std::atomic<uint64_t> head{0};
    std::vector<Slot> slots;

    // Single writer: the owning thread.
    void write(const Event &e)
    {
        const uint64_t idx =
            head.fetch_add(1, std::memory_order_relaxed) &
            (kRingEvents - 1);
        Slot &s = slots[idx];
        const uint64_t seq0 = s.seq.load(std::memory_order_relaxed);
        s.seq.store(seq0 + 1, std::memory_order_relaxed); // odd
        std::atomic_thread_fence(std::memory_order_release);
        s.w[0].store(e.ts_ns, std::memory_order_relaxed);
        s.w[1].store(e.meta, std::memory_order_relaxed);
        s.w[2].store(e.dur_or_id, std::memory_order_relaxed);
        s.w[3].store(e.a0, std::memory_order_relaxed);
        s.w[4].store(e.a1, std::memory_order_relaxed);
        s.seq.store(seq0 + 2, std::memory_order_release); // even
    }

    // Any thread; returns false for empty, in-flight, or torn slots.
    bool read(size_t idx, Event &out) const
    {
        const Slot &s = slots[idx];
        for (int attempt = 0; attempt < 4; ++attempt) {
            const uint64_t seq0 =
                s.seq.load(std::memory_order_acquire);
            if (seq0 == 0 || (seq0 & 1) != 0)
                return false;
            out.ts_ns = s.w[0].load(std::memory_order_relaxed);
            out.meta = s.w[1].load(std::memory_order_relaxed);
            out.dur_or_id = s.w[2].load(std::memory_order_relaxed);
            out.a0 = s.w[3].load(std::memory_order_relaxed);
            out.a1 = s.w[4].load(std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (s.seq.load(std::memory_order_relaxed) == seq0)
                return true;
        }
        return false;
    }
};

struct TraceRecorder::Impl
{
    mutable std::mutex mu;
    std::vector<std::shared_ptr<Ring>> rings; // survive thread exit
    std::vector<std::string> tags;            // tag value = index + 1

    struct Agg
    {
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> total_ns{0};
        std::atomic<uint64_t> max_ns{0};
        std::atomic<uint64_t> buckets[kBuckets] = {};
    };
    Agg agg[kNames];
};

TraceRecorder::TraceRecorder() : clock_(&steadyNowNs), impl_(new Impl)
{
}

TraceRecorder &
TraceRecorder::instance()
{
    static TraceRecorder recorder;
    return recorder;
}

void
TraceRecorder::setClockForTest(ClockFn fn)
{
    clock_.store(fn != nullptr ? fn : &steadyNowNs,
                 std::memory_order_relaxed);
}

TraceRecorder::Ring *
TraceRecorder::thisThreadRing()
{
    // Rings are owned jointly by the registry (so snapshots keep
    // working after the thread exits) and the owning thread.
    static thread_local std::shared_ptr<Ring> t_ring;
    if (t_ring == nullptr) {
        std::lock_guard<std::mutex> lk(impl_->mu);
        const size_t n = impl_->rings.size() + 1;
        t_ring = std::make_shared<Ring>(
            static_cast<uint16_t>(std::min<size_t>(n, 0xffff)));
        impl_->rings.push_back(t_ring);
    }
    return t_ring.get();
}

uint16_t
TraceRecorder::internTag(const std::string &label)
{
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (size_t i = 0; i < impl_->tags.size(); ++i)
        if (impl_->tags[i] == label)
            return static_cast<uint16_t>(i + 1);
    if (impl_->tags.size() >= 0xffff)
        return 0; // table full: fall back to untagged
    impl_->tags.push_back(label);
    return static_cast<uint16_t>(impl_->tags.size());
}

std::string
TraceRecorder::tagLabel(uint16_t tag) const
{
    std::lock_guard<std::mutex> lk(impl_->mu);
    if (tag == 0 || tag > impl_->tags.size())
        return std::string();
    return impl_->tags[tag - 1];
}

void
TraceRecorder::labelThisThread(const std::string &label)
{
    Ring *ring = thisThreadRing();
    std::lock_guard<std::mutex> lk(impl_->mu);
    ring->label = label;
}

std::string
TraceRecorder::threadLabel(uint16_t tid) const
{
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (const auto &r : impl_->rings)
        if (r->tid == tid)
            return r->label;
    return std::string();
}

void
TraceRecorder::emit(EventKind kind, SpanName name, uint64_t ts,
                    uint64_t dur, uint16_t tag, uint16_t extra,
                    uint64_t a0, uint64_t a1)
{
    Ring *ring = thisThreadRing();
    Event e;
    e.ts_ns = ts;
    e.meta = Event::packMeta(kind, name, ring->tid, tag, extra);
    e.dur_or_id = dur;
    e.a0 = a0;
    e.a1 = a1;
    ring->write(e);
}

void
TraceRecorder::accumulate(SpanName name, uint64_t dur_ns)
{
    Impl::Agg &a = impl_->agg[static_cast<size_t>(name)];
    a.count.fetch_add(1, std::memory_order_relaxed);
    a.total_ns.fetch_add(dur_ns, std::memory_order_relaxed);
    uint64_t prev = a.max_ns.load(std::memory_order_relaxed);
    while (prev < dur_ns &&
           !a.max_ns.compare_exchange_weak(prev, dur_ns,
                                           std::memory_order_relaxed))
        ;
    const int bucket = 63 - std::countl_zero(dur_ns | 1);
    a.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
}

void
TraceRecorder::spanComplete(SpanName name, uint64_t start_ns,
                            uint64_t dur_ns, uint16_t tag,
                            uint16_t extra, uint64_t a0, uint64_t a1)
{
    if (!armed())
        return;
    emit(EventKind::SpanComplete, name, start_ns, dur_ns, tag, extra,
         a0, a1);
    accumulate(name, dur_ns);
}

void
TraceRecorder::asyncBegin(SpanName name, uint64_t id, uint16_t tag,
                          uint16_t extra, uint64_t a0, uint64_t a1)
{
    if (!armed())
        return;
    emit(EventKind::AsyncBegin, name, nowNs(), id, tag, extra, a0, a1);
}

void
TraceRecorder::asyncEnd(SpanName name, uint64_t id, uint16_t tag,
                        uint16_t extra, uint64_t a0, uint64_t a1)
{
    if (!armed())
        return;
    emit(EventKind::AsyncEnd, name, nowNs(), id, tag, extra, a0, a1);
}

void
TraceRecorder::instant(SpanName name, uint16_t tag, uint16_t extra,
                       uint64_t a0, uint64_t a1)
{
    if (!armed())
        return;
    emit(EventKind::Instant, name, nowNs(), 0, tag, extra, a0, a1);
}

void
TraceRecorder::counter(SpanName name, uint64_t value, uint16_t tag)
{
    if (!armed())
        return;
    emit(EventKind::Counter, name, nowNs(), 0, tag, 0, value, 0);
}

std::vector<Event>
TraceRecorder::snapshotTagged(uint16_t tag) const
{
    std::vector<std::shared_ptr<Ring>> rings;
    {
        std::lock_guard<std::mutex> lk(impl_->mu);
        rings = impl_->rings;
    }
    std::vector<Event> out;
    Event e;
    for (const auto &ring : rings)
        for (size_t i = 0; i < kRingEvents; ++i)
            if (ring->read(i, e) && e.kind() != EventKind::None &&
                (tag == 0 || e.tag() == tag || e.tag() == 0))
                out.push_back(e);
    std::sort(out.begin(), out.end(),
              [](const Event &a, const Event &b) {
                  return a.ts_ns < b.ts_ns;
              });
    return out;
}

std::vector<PhaseProfileEntry>
TraceRecorder::profile() const
{
    std::vector<PhaseProfileEntry> out;
    for (size_t n = 0; n < kNames; ++n) {
        const Impl::Agg &a = impl_->agg[n];
        PhaseProfileEntry entry;
        entry.name = static_cast<SpanName>(n);
        entry.count = a.count.load(std::memory_order_relaxed);
        if (entry.count == 0)
            continue;
        entry.total_ns = a.total_ns.load(std::memory_order_relaxed);
        entry.max_ns = a.max_ns.load(std::memory_order_relaxed);
        // p99 from log2 buckets: the smallest bucket upper bound
        // covering >= 99% of samples, clamped to the observed max.
        const uint64_t target =
            entry.count - entry.count / 100; // ceil(0.99 * count)
        uint64_t seen = 0;
        for (size_t b = 0; b < kBuckets; ++b) {
            seen += a.buckets[b].load(std::memory_order_relaxed);
            if (seen >= target) {
                const uint64_t upper =
                    b >= 63 ? UINT64_MAX : ((uint64_t{2} << b) - 1);
                entry.p99_ns = std::min(upper, entry.max_ns);
                break;
            }
        }
        out.push_back(entry);
    }
    return out;
}

uint64_t
TraceRecorder::profileTotalNs(SpanName name) const
{
    return impl_->agg[static_cast<size_t>(name)].total_ns.load(
        std::memory_order_relaxed);
}

void
TraceRecorder::resetProfile()
{
    for (size_t n = 0; n < kNames; ++n) {
        Impl::Agg &a = impl_->agg[n];
        a.count.store(0, std::memory_order_relaxed);
        a.total_ns.store(0, std::memory_order_relaxed);
        a.max_ns.store(0, std::memory_order_relaxed);
        for (size_t b = 0; b < kBuckets; ++b)
            a.buckets[b].store(0, std::memory_order_relaxed);
    }
}

void
TraceRecorder::clear()
{
    // Resets slots through the same seqlock protocol. Caller must
    // quiesce emitters first (each ring is single-writer); snapshots
    // may still run concurrently.
    std::vector<std::shared_ptr<Ring>> rings;
    {
        std::lock_guard<std::mutex> lk(impl_->mu);
        rings = impl_->rings;
    }
    for (const auto &ring : rings) {
        for (auto &s : ring->slots) {
            const uint64_t seq0 = s.seq.load(std::memory_order_relaxed);
            if (seq0 == 0)
                continue;
            s.seq.store(seq0 + 1, std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_release);
            for (auto &w : s.w)
                w.store(0, std::memory_order_relaxed);
            s.seq.store(0, std::memory_order_release);
        }
        ring->head.store(0, std::memory_order_relaxed);
    }
}

} // namespace scdcnn::obs
