/**
 * @file
 * Tracing subsystem tests: per-thread ring wraparound (newest events
 * win), cross-thread snapshot merge in timestamp order (safe while
 * writers are live — the TSan lane runs this), the disarmed hot path
 * allocating nothing and recording nothing, Chrome trace_event export
 * that parses back as JSON, every engine phase reaching the tracing
 * aggregate from single-image and batched forward passes alike,
 * serve-layer lifecycle spans, and the
 * flight recorder dumping a model's recent events when an injected
 * execution fault trips its circuit breaker.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sc_network.h"
#include "nn/network.h"
#include "nn/topology.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "serve/artifact.h"
#include "serve/model_registry.h"
#include "serve/server.h"

// ------------------------------------------- allocation instrumentation
// Counting operator new, toggled around the disarmed-path test. Each
// test file is its own executable, so the override is scoped to this
// binary.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}
void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace scdcnn {
namespace {

using namespace std::chrono_literals;
using obs::Event;
using obs::EventKind;
using obs::SpanName;
using obs::TraceRecorder;
using serve::FaultInjector;
using serve::FaultPoint;
using serve::ModelRegistry;
using serve::RegistryConfig;
using serve::ServeError;

/** Quiesce and wipe the process recorder between tests (it is a
 *  singleton shared by every test in this binary). */
TraceRecorder &
freshRecorder()
{
    TraceRecorder &rec = TraceRecorder::instance();
    rec.disarm();
    rec.clear();
    rec.resetProfile();
    return rec;
}

// ------------------------------------------------- minimal JSON parser
// Just enough of a recursive-descent parser to verify the exported
// trace is syntactically complete JSON (objects, arrays, strings with
// escapes, numbers, literals) — structure checks use the raw text.

bool parseValue(const std::string &s, size_t &pos);

void
skipWs(const std::string &s, size_t &pos)
{
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
            s[pos] == '\r'))
        ++pos;
}

bool
parseString(const std::string &s, size_t &pos)
{
    if (pos >= s.size() || s[pos] != '"')
        return false;
    ++pos;
    while (pos < s.size() && s[pos] != '"') {
        if (s[pos] == '\\') {
            ++pos;
            if (pos >= s.size())
                return false;
        }
        ++pos;
    }
    if (pos >= s.size())
        return false;
    ++pos; // closing quote
    return true;
}

bool
parseNumber(const std::string &s, size_t &pos)
{
    const size_t start = pos;
    if (pos < s.size() && (s[pos] == '-' || s[pos] == '+'))
        ++pos;
    bool digits = false;
    while (pos < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[pos])) ||
            s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
            s[pos] == '-' || s[pos] == '+')) {
        digits = digits ||
                 std::isdigit(static_cast<unsigned char>(s[pos]));
        ++pos;
    }
    return digits && pos > start;
}

bool
parseObject(const std::string &s, size_t &pos)
{
    ++pos; // '{'
    skipWs(s, pos);
    if (pos < s.size() && s[pos] == '}') {
        ++pos;
        return true;
    }
    for (;;) {
        skipWs(s, pos);
        if (!parseString(s, pos))
            return false;
        skipWs(s, pos);
        if (pos >= s.size() || s[pos] != ':')
            return false;
        ++pos;
        if (!parseValue(s, pos))
            return false;
        skipWs(s, pos);
        if (pos < s.size() && s[pos] == ',') {
            ++pos;
            continue;
        }
        break;
    }
    if (pos >= s.size() || s[pos] != '}')
        return false;
    ++pos;
    return true;
}

bool
parseArray(const std::string &s, size_t &pos)
{
    ++pos; // '['
    skipWs(s, pos);
    if (pos < s.size() && s[pos] == ']') {
        ++pos;
        return true;
    }
    for (;;) {
        if (!parseValue(s, pos))
            return false;
        skipWs(s, pos);
        if (pos < s.size() && s[pos] == ',') {
            ++pos;
            continue;
        }
        break;
    }
    if (pos >= s.size() || s[pos] != ']')
        return false;
    ++pos;
    return true;
}

bool
parseValue(const std::string &s, size_t &pos)
{
    skipWs(s, pos);
    if (pos >= s.size())
        return false;
    const char c = s[pos];
    if (c == '{')
        return parseObject(s, pos);
    if (c == '[')
        return parseArray(s, pos);
    if (c == '"')
        return parseString(s, pos);
    if (s.compare(pos, 4, "true") == 0) {
        pos += 4;
        return true;
    }
    if (s.compare(pos, 5, "false") == 0) {
        pos += 5;
        return true;
    }
    if (s.compare(pos, 4, "null") == 0) {
        pos += 4;
        return true;
    }
    return parseNumber(s, pos);
}

bool
isCompleteJson(const std::string &s)
{
    size_t pos = 0;
    if (!parseValue(s, pos))
        return false;
    skipWs(s, pos);
    return pos == s.size();
}

// --------------------------------------------------------- mini fleet
// Tiny 12x12 topology so engine construction is milliseconds (the
// same shape tests/test_registry.cc uses).

nn::TopologySpec
miniSpec(uint64_t seed)
{
    nn::TopologySpec spec;
    spec.in_h = spec.in_w = 12;
    spec.convs = {{3, 3}};
    spec.fc_hidden = {11};
    spec.n_classes = 6;
    spec.seed = seed;
    return spec;
}

core::ScNetworkConfig
miniConfig()
{
    core::ScNetworkConfig cfg;
    cfg.bitstream_len = 64;
    cfg.stream_segment_words = 1;
    cfg.input_c = 1;
    cfg.input_h = cfg.input_w = 12;
    return cfg;
}

nn::Tensor
image(uint64_t seed)
{
    nn::Tensor t(1, 12, 12);
    uint64_t x = seed * 6364136223846793005ull + 1442695040888963407ull;
    for (size_t i = 0; i < t.size(); ++i) {
        x ^= x >> 33;
        x *= 0xFF51AFD7ED558CCDull;
        t[i] = static_cast<float>((x >> 40) & 0xFF) / 255.0f;
    }
    return t;
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return {};
    std::string content;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        content.append(buf, got);
    std::fclose(f);
    return content;
}

// ------------------------------------------------------ ring behavior

TEST(TraceRing, WrapsKeepingNewestEvents)
{
    TraceRecorder &rec = freshRecorder();
    rec.arm();
    const size_t n = TraceRecorder::kRingEvents + 500;
    for (size_t i = 0; i < n; ++i)
        rec.instant(SpanName::EarlyExit, 0, 0, /*a0=*/i);
    rec.disarm();

    const std::vector<Event> events = rec.snapshot();
    ASSERT_EQ(events.size(), TraceRecorder::kRingEvents);
    uint64_t min_a0 = ~0ull, max_a0 = 0;
    for (const Event &e : events) {
        EXPECT_EQ(e.kind(), EventKind::Instant);
        min_a0 = std::min(min_a0, e.a0);
        max_a0 = std::max(max_a0, e.a0);
    }
    // Newest overwrite oldest: the last kRingEvents emissions survive.
    EXPECT_EQ(max_a0, n - 1);
    EXPECT_EQ(min_a0, n - TraceRecorder::kRingEvents);
}

TEST(TraceRing, CrossThreadSnapshotMergesInTimestampOrder)
{
    TraceRecorder &rec = freshRecorder();
    rec.arm();
    constexpr size_t kThreads = 4, kPer = 200;
    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (size_t t = 0; t < kThreads; ++t) {
        writers.emplace_back([&rec, t] {
            rec.labelThisThread("writer-" + std::to_string(t));
            for (size_t i = 0; i < kPer; ++i)
                rec.instant(SpanName::EarlyExit, 0,
                            static_cast<uint16_t>(t), i);
        });
    }
    // Concurrent reads while writers are live must see only whole
    // events (the seqlock skips torn slots).
    std::thread reader([&rec, &done] {
        while (!done.load()) {
            for (const Event &e : rec.snapshot())
                ASSERT_NE(e.kind(), EventKind::None);
        }
    });
    for (std::thread &w : writers)
        w.join();
    done.store(true);
    reader.join();
    rec.disarm();

    const std::vector<Event> events = rec.snapshot();
    ASSERT_EQ(events.size(), kThreads * kPer);
    std::set<uint16_t> tids;
    for (size_t i = 0; i < events.size(); ++i) {
        tids.insert(events[i].tid());
        if (i > 0) {
            EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
        }
    }
    EXPECT_EQ(tids.size(), kThreads);
    for (uint16_t tid : tids)
        EXPECT_EQ(rec.threadLabel(tid).rfind("writer-", 0), 0u);
}

// --------------------------------------------------- disarmed hot path

TEST(TraceDisarmed, EmittersAllocateNothingAndRecordNothing)
{
    TraceRecorder &rec = freshRecorder();
    // Touch this thread's ring once while armed so lazy ring creation
    // cannot be charged to the disarmed path under test.
    rec.arm();
    rec.instant(SpanName::EarlyExit);
    rec.disarm();
    rec.clear();

    g_allocs.store(0);
    g_count_allocs.store(true);
    for (uint64_t i = 0; i < 1000; ++i) {
        rec.spanComplete(SpanName::QueueWait, i, 10);
        rec.asyncBegin(SpanName::Request, i);
        rec.asyncEnd(SpanName::Request, i);
        rec.instant(SpanName::Shed);
        rec.counter(SpanName::QueueDepth, i);
        obs::ScopedSpan span(SpanName::Scenario);
        span.finish();
    }
    g_count_allocs.store(false);

    EXPECT_EQ(g_allocs.load(), 0u);
    EXPECT_TRUE(rec.snapshot().empty());
    EXPECT_EQ(rec.profileTotalNs(SpanName::QueueWait), 0u);
}

// ------------------------------------------------- scoped span timing

TEST(ScopedSpan, MeasuresWhileDisarmedEmitsWhileArmed)
{
    TraceRecorder &rec = freshRecorder();
    {
        obs::ScopedSpan span(SpanName::Scenario);
        std::this_thread::sleep_for(2ms);
        EXPECT_GE(span.finish(), 1'000'000u); // usable as a wall timer
    }
    EXPECT_TRUE(rec.snapshot().empty()); // but emitted nothing

    rec.arm();
    {
        obs::ScopedSpan span(SpanName::Scenario, 0, 0, 7);
        std::this_thread::sleep_for(1ms);
    }
    rec.disarm();
    const std::vector<Event> events = rec.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind(), EventKind::SpanComplete);
    EXPECT_EQ(events[0].name(), SpanName::Scenario);
    EXPECT_EQ(events[0].a0, 7u);
    EXPECT_GE(events[0].dur_or_id, 500'000u);
    EXPECT_EQ(rec.profileTotalNs(SpanName::Scenario),
              events[0].dur_or_id);
}

// ---------------------------------------------------- chrome exporter

TEST(ChromeTrace, ExportParsesBackAsJson)
{
    TraceRecorder &rec = freshRecorder();
    rec.labelThisThread("test-main");
    const uint16_t tag = rec.internTag("model-a");
    rec.arm();
    const uint64_t t0 = rec.nowNs();
    rec.asyncBegin(SpanName::Request, 0x2a, tag, 1, 0x2a);
    rec.spanComplete(SpanName::QueueWait, t0, 1000, tag, 1, 0x2a);
    rec.instant(SpanName::BatchClose, tag, /*reason=*/1, 4, 2);
    rec.spanComplete(SpanName::BatchCompute, t0 + 1000, 2000, tag, 0,
                     4, 64);
    rec.spanComplete(SpanName::InnerProduct, t0, 500, 0, 0, /*seg=*/2);
    rec.counter(SpanName::QueueDepth, 3);
    rec.asyncEnd(SpanName::Request, 0x2a, tag, 1, 0x2a, 64);
    rec.disarm();

    const std::string json = obs::chromeTraceJson(rec.snapshot());
    EXPECT_TRUE(isCompleteJson(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    // Every phase letter the exporter knows shows up.
    for (const char *needle :
         {"\"ph\":\"X\"", "\"ph\":\"b\"", "\"ph\":\"e\"",
          "\"ph\":\"i\"", "\"ph\":\"C\"", "\"ph\":\"M\""})
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    // Names, decoded args, the interned model tag, the close reason
    // rendered as a string, and the thread label all round-trip.
    for (const char *needle :
         {"\"name\":\"queue_wait\"", "\"name\":\"batch_close\"",
          "\"name\":\"batch_compute\"", "\"name\":\"inner_product\"",
          "\"name\":\"request\"", "\"reason\":\"idle\"",
          "\"model\":\"model-a\"", "\"seg\":2", "\"req\":42",
          "\"id\":\"0x2a\"", "\"test-main\""})
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
}

// ------------------------------------------- engine phase aggregation

TEST(PhaseProfile, PredictAndBatchPopulateEveryPhase)
{
    // The one SC driver times its phases per chunk and segment; an
    // armed single-image predict and an armed B=4 forwardBatch must
    // each fill all five phase aggregates, and the aggregate must land
    // in the metrics snapshot wire format.
    TraceRecorder &rec = freshRecorder();
    nn::Network net =
        nn::buildTopology(miniSpec(3), nn::PoolingMode::Max);
    core::ScNetwork scn(net, miniConfig());
    scn.predict(image(1), 1); // warm-up while disarmed

    const auto expectEveryPhase = [&rec](const char *what) {
        const std::vector<obs::PhaseProfileEntry> profile = rec.profile();
        const std::string json = serve::ServerMetrics().snapshot().toJson();
        for (SpanName name :
             {SpanName::Encode, SpanName::InnerProduct, SpanName::Pooling,
              SpanName::Activation, SpanName::Output}) {
            EXPECT_GT(rec.profileTotalNs(name), 0u)
                << what << " " << obs::spanName(name);
            bool listed = false;
            for (const obs::PhaseProfileEntry &p : profile)
                if (p.name == name) {
                    listed = true;
                    EXPECT_GT(p.count, 0u) << what;
                    EXPECT_GE(p.total_ns, p.max_ns) << what;
                }
            EXPECT_TRUE(listed) << what << " " << obs::spanName(name);
            EXPECT_NE(json.find("\"" + std::string(obs::spanName(name)) +
                                "\": {\"count\""),
                      std::string::npos)
                << what << " " << obs::spanName(name);
        }
    };

    rec.arm();
    scn.predict(image(1), 2);
    rec.disarm();
    expectEveryPhase("predict");

    rec.resetProfile();
    std::vector<nn::Tensor> batch;
    for (uint64_t i = 0; i < 4; ++i)
        batch.push_back(image(10 + i));
    rec.arm();
    scn.forwardBatch(batch, 3);
    rec.disarm();
    expectEveryPhase("forwardBatch");
}

TEST(PhaseProfile, BinaryPredictionEmitsOneSpanWhileArmed)
{
    // The Binary backend shows up in traces: an armed EngineMode::Binary
    // predictWith records exactly one BinaryForward span and one
    // aggregate sample; a disarmed one records neither.
    TraceRecorder &rec = freshRecorder();
    nn::Network net =
        nn::buildTopology(miniSpec(3), nn::PoolingMode::Max);
    core::ScNetwork scn(net, miniConfig());
    core::PredictOptions popts;
    popts.mode = core::EngineMode::Binary;
    const auto binarySpans = [&rec] {
        size_t n = 0;
        for (const Event &e : rec.snapshot())
            n += e.kind() == EventKind::SpanComplete &&
                 e.name() == SpanName::BinaryForward;
        return n;
    };

    scn.predictWith(image(1), 1, popts);
    EXPECT_EQ(binarySpans(), 0u);
    EXPECT_EQ(rec.profileTotalNs(SpanName::BinaryForward), 0u);

    rec.arm();
    scn.predictWith(image(1), 2, popts);
    rec.disarm();
    EXPECT_EQ(binarySpans(), 1u);
    size_t samples = 0;
    for (const obs::PhaseProfileEntry &p : rec.profile())
        if (p.name == SpanName::BinaryForward)
            samples += p.count;
    EXPECT_EQ(samples, 1u);
}

// --------------------------------------------- serve lifecycle spans

TEST(ServeSpans, LifecycleEventsRecorded)
{
    TraceRecorder &rec = freshRecorder();
    nn::Network net =
        nn::buildTopology(miniSpec(5), nn::PoolingMode::Max);
    core::ScNetwork scn(net, miniConfig());

    serve::ServerConfig scfg;
    scfg.limits.max_batch = 2;
    scfg.limits.max_queue_delay = 200us;
    rec.arm();
    {
        serve::InferenceServer server(scn, scfg);
        std::vector<std::future<serve::InferenceResult>> futs;
        for (uint64_t i = 0; i < 6; ++i)
            futs.push_back(server.submit(image(i)));
        for (auto &f : futs)
            EXPECT_NO_THROW(f.get());
        server.drain();
    }
    rec.disarm();

    bool begin = false, end = false, wait = false, close = false,
         compute = false;
    for (const Event &e : rec.snapshot()) {
        begin = begin || (e.kind() == EventKind::AsyncBegin &&
                          e.name() == SpanName::Request);
        end = end || (e.kind() == EventKind::AsyncEnd &&
                      e.name() == SpanName::Request);
        wait = wait || e.name() == SpanName::QueueWait;
        close = close || e.name() == SpanName::BatchClose;
        compute = compute || e.name() == SpanName::BatchCompute;
    }
    EXPECT_TRUE(begin);
    EXPECT_TRUE(end);
    EXPECT_TRUE(wait);
    EXPECT_TRUE(close);
    EXPECT_TRUE(compute);
}

// ------------------------------------------------------ flight recorder

TEST(FlightRecorderTest, DumpsModelEventsOnInjectedFaultTrip)
{
    TraceRecorder &rec = freshRecorder();
    obs::FlightRecorderConfig fcfg;
    fcfg.dir = ::testing::TempDir();
    obs::FlightRecorder flight(fcfg);

    FaultInjector faults;
    RegistryConfig rc;
    rc.server_template.limits.max_batch = 1;
    rc.server_template.limits.max_queue_delay = 100us;
    rc.faults = &faults;
    rc.breaker.alpha = 0.5;
    rc.breaker.min_events = 4;
    rc.breaker.trip_threshold = 0.5;
    rc.flight_recorder = &flight;
    ModelRegistry reg(rc);
    const nn::TopologySpec spec = miniSpec(5);
    nn::Network net = nn::buildTopology(spec, nn::PoolingMode::Max);
    ASSERT_TRUE(reg.install("model-x",
                            serve::makeArtifact("model-x", 1, spec,
                                                nn::PoolingMode::Max,
                                                miniConfig(), net))
                    .ok);

    rec.arm();
    faults.arm(FaultPoint::ModelExecute, 100);
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_THROW(reg.submit("model-x", image(i)).get(), ServeError);
    faults.disarm(FaultPoint::ModelExecute);
    rec.disarm();

    ASSERT_GE(flight.dumpCount(), 1u);
    const obs::FlightDump dump = flight.dumps().front();
    EXPECT_EQ(dump.reason, "breaker_trip");
    EXPECT_EQ(dump.model_id, "model-x");
    EXPECT_TRUE(dump.written);
    EXPECT_GT(dump.n_events, 0u);
    EXPECT_EQ(flight.lastPath(), flight.dumps().back().path);

    // The dump file is a complete Chrome trace holding the failing
    // model's fault events.
    const std::string content = readFile(dump.path);
    ASSERT_FALSE(content.empty()) << dump.path;
    EXPECT_TRUE(isCompleteJson(content));
    EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(content.find("\"name\":\"fault\""), std::string::npos);
    EXPECT_NE(content.find("\"model\":\"model-x\""), std::string::npos);
    std::remove(dump.path.c_str());
}

} // namespace
} // namespace scdcnn
