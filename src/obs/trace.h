// Low-overhead tracing and profiling: per-thread lock-free rings of
// fixed-size events, armed at runtime behind a single relaxed atomic
// load, with a per-span-kind aggregate profile (count/total/max/p99)
// maintained as events are emitted. Exporters (Chrome trace_event
// JSON, flight-recorder dumps) live in chrome_trace.h and
// flight_recorder.h; this header has no dependencies beyond the
// standard library so core/, serve/ and bench can all include it.
#ifndef SCDCNN_OBS_TRACE_H
#define SCDCNN_OBS_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace scdcnn::obs {

// What a ring slot records. SpanComplete carries its duration (Chrome
// "X") so spans never straddle a ring wraparound as orphaned halves;
// AsyncBegin/AsyncEnd pair across threads by id (Chrome "b"/"e") for
// the request lifecycle, which starts on the submitter's thread and
// ends on a batch worker's.
enum class EventKind : uint8_t {
    None = 0,
    SpanComplete,
    AsyncBegin,
    AsyncEnd,
    Instant,
    Counter,
};

// Every span/instant/counter name the system emits. A closed enum —
// not strings — keeps events fixed-size and the aggregate profile a
// flat array.
enum class SpanName : uint8_t {
    Encode = 0,   // engine: image -> bitstreams
    InnerProduct, // engine: XNOR/APC/MUX inner products (per segment)
    Pooling,      // engine: max/average pooling (per segment)
    Activation,   // engine: Stanh/Btanh FSMs (per segment)
    Output,       // engine: output accumulator (per segment)
    EarlyExit,    // engine: progressive exit instant (bits consumed)
    BatchCompact, // engine: batch compaction instant (kept/before)
    Request,      // serve: async request lifecycle (submit -> resolve)
    QueueWait,    // serve: admit -> batch close, per request
    BatchClose,   // serve: batch closed instant (reason + size)
    BatchCompute, // serve: forward pass over a closed batch
    Shed,         // serve: doomed request shed before compute
    Cancelled,    // serve: request cancelled
    Rejected,     // serve: admission rejected at submit
    Fault,        // serve: injected/registry fault instant
    QueueDepth,   // serve: queue depth counter at admit
    Scenario,     // bench: one scenario phase wall-clock span
    BinaryForward, // engine: one Binary-backend prediction
    kCount,
};

const char *spanName(SpanName name);

// One ring slot: 5 payload words plus a seqlock word. `meta` packs
// kind(8) | name(8) | tid(16) | tag(16) | extra(16); `dur_or_id` is
// the span duration in ns (SpanComplete) or the async id
// (AsyncBegin/End); a0/a1 are per-name arguments (see chrome_trace.cc
// for the rendering table).
struct Event
{
    uint64_t ts_ns = 0;
    uint64_t meta = 0;
    uint64_t dur_or_id = 0;
    uint64_t a0 = 0;
    uint64_t a1 = 0;

    EventKind kind() const
    {
        return static_cast<EventKind>(meta & 0xff);
    }
    SpanName name() const
    {
        return static_cast<SpanName>((meta >> 8) & 0xff);
    }
    uint16_t tid() const { return (meta >> 16) & 0xffff; }
    uint16_t tag() const { return (meta >> 32) & 0xffff; }
    uint16_t extra() const { return (meta >> 48) & 0xffff; }

    static uint64_t packMeta(EventKind kind, SpanName name,
                             uint16_t tid, uint16_t tag, uint16_t extra)
    {
        return static_cast<uint64_t>(kind) |
               (static_cast<uint64_t>(name) << 8) |
               (static_cast<uint64_t>(tid) << 16) |
               (static_cast<uint64_t>(tag) << 32) |
               (static_cast<uint64_t>(extra) << 48);
    }
};

// Aggregate per-span-kind profile entry, snapshotted by
// TraceRecorder::profile(). p99 comes from log2-ns buckets, so it is
// an upper bound with ~2x resolution — good enough for trend gates.
struct PhaseProfileEntry
{
    SpanName name = SpanName::kCount;
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t max_ns = 0;
    uint64_t p99_ns = 0;
};

namespace detail {
// The armed flag lives at namespace scope (not inside the singleton)
// so the disarmed hot path is exactly one relaxed atomic load with no
// function-local-static init guard in front of it.
extern std::atomic<bool> g_armed;
} // namespace detail

inline bool
armed()
{
    return detail::g_armed.load(std::memory_order_relaxed);
}

class TraceRecorder
{
  public:
    // Events per per-thread ring; power of two, newest overwrite
    // oldest. ~160 KiB per thread when touched.
    static constexpr size_t kRingEvents = 4096;

    static TraceRecorder &instance();

    // Runtime arming. Compiled-in call sites check obs::armed() (one
    // relaxed load) before doing any work.
    void arm() { detail::g_armed.store(true, std::memory_order_relaxed); }
    void disarm()
    {
        detail::g_armed.store(false, std::memory_order_relaxed);
    }

    // Steady-clock ns since an arbitrary epoch. Tests may substitute
    // a deterministic clock; null restores the steady clock.
    using ClockFn = uint64_t (*)();
    uint64_t nowNs() const
    {
        return clock_.load(std::memory_order_relaxed)();
    }
    void setClockForTest(ClockFn fn);

    // Interns a label (e.g. a model id) into a 16-bit tag carried by
    // every event; 0 means untagged. Idempotent per string.
    uint16_t internTag(const std::string &label);
    std::string tagLabel(uint16_t tag) const;

    // Names the calling thread in exported traces ("batch-worker",
    // "pool-worker", ...). Creates the thread's ring eagerly, so call
    // it from thread setup, not hot paths.
    void labelThisThread(const std::string &label);

    // --- emitters (no-ops while disarmed) --------------------------
    void spanComplete(SpanName name, uint64_t start_ns, uint64_t dur_ns,
                      uint16_t tag = 0, uint16_t extra = 0,
                      uint64_t a0 = 0, uint64_t a1 = 0);
    void asyncBegin(SpanName name, uint64_t id, uint16_t tag = 0,
                    uint16_t extra = 0, uint64_t a0 = 0, uint64_t a1 = 0);
    void asyncEnd(SpanName name, uint64_t id, uint16_t tag = 0,
                  uint16_t extra = 0, uint64_t a0 = 0, uint64_t a1 = 0);
    void instant(SpanName name, uint16_t tag = 0, uint16_t extra = 0,
                 uint64_t a0 = 0, uint64_t a1 = 0);
    void counter(SpanName name, uint64_t value, uint16_t tag = 0);

    // --- readers ---------------------------------------------------
    // Merge every thread's ring into one timestamp-sorted vector.
    // Safe concurrently with writers (per-slot seqlock: torn slots
    // are skipped). tag!=0 keeps only events with that tag or no tag.
    std::vector<Event> snapshot() const { return snapshotTagged(0); }
    std::vector<Event> snapshotTagged(uint16_t tag) const;

    // Thread label for a snapshot event's tid(), or "" if unnamed.
    std::string threadLabel(uint16_t tid) const;

    // Aggregate profile across all SpanComplete events emitted while
    // armed (process lifetime, independent of ring wraparound).
    std::vector<PhaseProfileEntry> profile() const;
    uint64_t profileTotalNs(SpanName name) const;
    void resetProfile();

    // Drop all ring contents (rings stay registered).
    void clear();

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

  private:
    TraceRecorder();

    struct Ring;
    Ring *thisThreadRing();
    void emit(EventKind kind, SpanName name, uint64_t ts, uint64_t dur,
              uint16_t tag, uint16_t extra, uint64_t a0, uint64_t a1);
    void accumulate(SpanName name, uint64_t dur_ns);

    std::atomic<ClockFn> clock_;
    struct Impl;
    Impl *impl_;
};

// RAII span: captures the clock at construction unconditionally (so
// it doubles as a wall-clock timer for bench loops even while
// disarmed), and emits a SpanComplete event + aggregate sample at
// destruction only if tracing is armed by then.
class ScopedSpan
{
  public:
    explicit ScopedSpan(SpanName name, uint16_t tag = 0,
                        uint16_t extra = 0, uint64_t a0 = 0,
                        uint64_t a1 = 0)
        : name_(name), tag_(tag), extra_(extra), a0_(a0), a1_(a1),
          start_ns_(TraceRecorder::instance().nowNs())
    {
    }
    ~ScopedSpan()
    {
        if (!done_)
            finish();
    }

    uint64_t elapsedNs() const
    {
        return TraceRecorder::instance().nowNs() - start_ns_;
    }
    double elapsedMs() const
    {
        return static_cast<double>(elapsedNs()) * 1e-6;
    }

    void setArgs(uint64_t a0, uint64_t a1)
    {
        a0_ = a0;
        a1_ = a1;
    }

    // Emit now (idempotent); returns the span duration in ns.
    uint64_t finish()
    {
        const uint64_t dur = elapsedNs();
        if (!done_) {
            done_ = true;
            if (armed())
                TraceRecorder::instance().spanComplete(
                    name_, start_ns_, dur, tag_, extra_, a0_, a1_);
        }
        return dur;
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanName name_;
    uint16_t tag_;
    uint16_t extra_;
    uint64_t a0_;
    uint64_t a1_;
    uint64_t start_ns_;
    bool done_ = false;
};

} // namespace scdcnn::obs

#endif // SCDCNN_OBS_TRACE_H
