/**
 * @file
 * Serving benchmark: a trained mini-LeNet (Max pooling, APC-APC-APC,
 * L = 1024) served through serve::InferenceServer under one named
 * workload per run.
 *
 *   serve_bench --workload single|saturated|mixed --seed N --seconds S
 *               --trace 0|1 [--out-dir DIR]
 *
 * --trace 0 measures the end-to-end metrics with no spans recorded.
 * --trace 1 runs the same workload untraced and then traced, adds direct
 * probes of the core, sc and common layers, and reports the per-layer
 * metrics plus a Chrome trace. Every layer is timed from outside, through
 * its public functions and result records; the program itself is not
 * instrumented. The last stdout line is one JSON object
 * {correct, attempted, failed, metrics}; the exit code is non-zero when
 * any answer fails the correctness gate or a request fails.
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "common/thread_pool.h"
#include "core/sc_config.h"
#include "core/sc_network.h"
#include "nn/dataset.h"
#include "nn/network.h"
#include "nn/trainer.h"
#include "sc/bitstream.h"
#include "sc/fsm_batch.h"
#include "sc/fused.h"
#include "sc/simd.h"
#include "serve/server.h"

namespace servebench {
namespace {

namespace core = scdcnn::core;
namespace nn = scdcnn::nn;
namespace sc = scdcnn::sc;
namespace serve = scdcnn::serve;
using scdcnn::ThreadPool;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------- fixed settings
// Pinned so that two runs differ only in code and seed; every value is
// recorded in the run fingerprint.

constexpr size_t kStreamLen = 1024;    // the paper's default L
// ServerConfig::compute_pool size. One core of a 4-core box is left to
// the batch worker and the client: with a 4-thread pool, saturated
// throughput was bimodal (290-450 ips over ten seeds on a quiet 4-vCPU
// VM); with 3 its spread (q3 - q1) / median was 0.014.
constexpr size_t kComputeThreads = 3;
constexpr size_t kMaxBatch = 8;
constexpr std::chrono::microseconds kMaxQueueDelay{2000};
constexpr size_t kTrainImages = 2000;
constexpr size_t kTrainEpochs = 4;
constexpr uint64_t kTrainSeed = 20170408;
constexpr size_t kPoolImages = 2048;   // distinct images per workload
constexpr double kWarmupSeconds = 1.5;
// The measured phase is cut into kIntervals equal intervals; a --trace 1
// run alternates 2 x kIntervals untraced and traced intervals.
constexpr size_t kIntervals = 5;
constexpr size_t kSetupRepeats = 21;
// Host probe: a thread of the benchmark times one probeWork(kProbeRounds)
// call, in its own CPU time, every kProbeEvery. On the reference host a
// call takes kProbeRefMs; a phase's timings are divided by the mean call
// time during the phase over kProbeRefMs. On a shared 4-vCPU VM the host
// switched for minutes at a time between speeds ~1.8x apart, and moved
// within a second by up to 30%, with every timing following it.
constexpr size_t kProbeRounds = 32;
constexpr std::chrono::milliseconds kProbeEvery{10};
constexpr double kProbeRefMs = 0.1;
constexpr size_t kGateEvery = 8;       // re-check answers with index % 8 == 0
/** Held-out images per class in the accuracy pass (High, Balanced,
 *  Fast). Binary is deterministic, so Fast's spread across seeds is
 *  pure image sampling and needs the most images; it is also cheap. */
constexpr std::array<size_t, 3> kAccuracyImages = {800, 600, 4000};

// Request streams: disjoint seeded sequences per phase of a run.
constexpr uint64_t kStreamWarmup = 0;
constexpr uint64_t kStreamMeasured = 1;
constexpr uint64_t kStreamAccuracy = 3;
constexpr uint64_t kStreamSetup = 4;
constexpr uint64_t kStreamPool = 5;

/** One named traffic mix. */
struct Workload
{
    const char *name;
    bool open_loop;
    size_t window;      //!< closed loop: requests kept in flight
    double rate_rps;    //!< open loop: Poisson arrival rate
    ClassMix mix;       //!< High / Balanced / Fast per block
    double noise_sigma; //!< clamped Gaussian pixel noise
    size_t batch_workers; //!< ServerConfig::batch_workers
};

// Why each exists is in README.md; in short: single isolates the
// per-image path, saturated the batch driver and pool fan-out, mixed the
// scheduler, Progressive and Binary under open-loop arrivals. mixed runs
// two batch workers: with one, every class queued behind a running
// single-image batch (~25 ms), and across seeds its p50 spread
// (q3 - q1) / median was 0.17-0.24 on a shared 4-vCPU VM; with two it
// was 0.05.
constexpr Workload kWorkloads[] = {
    {"single", false, 1, 0.0, {1, 0, 0}, 0.0, 1},
    {"saturated", false, 2 * kMaxBatch, 0.0, {1, 0, 0}, 0.0, 1},
    {"mixed", true, 0, 35.0, {1, 2, 1}, 0.25, 2},
};

const char *kClassNames[3] = {"high", "balanced", "fast"};

double
since(Clock::time_point t0, Clock::time_point t)
{
    return std::chrono::duration<double>(t - t0).count();
}

// --------------------------------------------------------------- tracer

/** In-memory span recorder; disabled, it records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

    double us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    int add(std::string name, const char *layer, Clock::time_point start,
            Clock::time_point end, int parent, int64_t request = -1)
    {
        if (!on_)
            return -1;
        spans_.push_back(
            {std::move(name), layer, us(start), us(end), parent, request});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Open a span now; close() sets its end. */
    int open(std::string name, const char *layer, int parent)
    {
        const auto now = Clock::now();
        return add(std::move(name), layer, now, now, parent);
    }

    void close(int idx)
    {
        if (idx >= 0)
            spans_[static_cast<size_t>(idx)].end_us = us(Clock::now());
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Chrome trace JSON: requests as async events (they overlap), every
 *  other span as a complete event on the client thread. */
bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 const std::string &fingerprint)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n"
                    " \"traceEvents\": [\n",
                 fingerprint.c_str());
    bool first = true;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const char *sep = first ? "  " : ", ";
        first = false;
        if (s.request >= 0) {
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                         "\"b\", \"id\": %lld, \"pid\": 1, \"tid\": 1, "
                         "\"ts\": %.3f, \"args\": {\"parent\": %d}}\n"
                         ", {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                         "\"e\", \"id\": %lld, \"pid\": 1, \"tid\": 1, "
                         "\"ts\": %.3f}\n",
                         sep, s.name.c_str(), s.layer.c_str(),
                         static_cast<long long>(s.request), s.start_us,
                         s.parent, s.name.c_str(), s.layer.c_str(),
                         static_cast<long long>(s.request), s.end_us);
        } else {
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                         "\"X\", \"pid\": 1, \"tid\": 0, \"ts\": %.3f, "
                         "\"dur\": %.3f, \"args\": {\"span\": %zu, "
                         "\"parent\": %d}}\n",
                         sep, s.name.c_str(), s.layer.c_str(), s.start_us,
                         s.end_us - s.start_us, i, s.parent);
        }
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------- the system

nn::Network
trainNetwork()
{
    const nn::Dataset train =
        nn::DigitDataset::generate(kTrainImages, kTrainSeed);
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 1);
    nn::TrainConfig tc;
    tc.epochs = kTrainEpochs;
    nn::Trainer(net, tc).train(train);
    return net;
}

core::ScNetworkConfig
networkConfig()
{
    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.layer_adders = {core::AdderKind::Apc, core::AdderKind::Apc,
                        core::AdderKind::Apc};
    cfg.bitstream_len = kStreamLen;
    return cfg;
}

serve::ServerConfig
serverConfig(ThreadPool &pool, const Workload &w)
{
    serve::ServerConfig cfg;
    cfg.batch_workers = w.batch_workers;
    cfg.limits.max_batch = kMaxBatch;
    cfg.limits.max_queue_delay = kMaxQueueDelay;
    cfg.compute_pool = &pool;
    return cfg;
}

/** The served system; the server is declared last so it is destroyed
 *  before the network it serves. */
struct System
{
    std::unique_ptr<core::ScNetwork> net;
    std::unique_ptr<serve::InferenceServer> server;

    void reset()
    {
        server.reset();
        net.reset();
    }
};

// -------------------------------------------------------------- phases

/** One answered (or failed) request of a phase. */
struct Answer
{
    size_t index = 0;
    RequestSpec spec;
    DueTimes t;
    bool ok = false;
    InferenceResult r;
};

struct PhaseResult
{
    std::vector<Answer> answers;
    size_t errors = 0; //!< ServeErrors
    serve::MetricsSnapshot before, after;
};

/**
 * Drive one phase from a single client thread. Closed loop: keep
 * `window` requests in flight until `seconds` have passed. Open loop:
 * send each request of the Poisson schedule at its due time. Between
 * sends the client blocks on the oldest outstanding answer, at most
 * 1 ms in the open loop so that answers of other classes that finish
 * first are seen within a millisecond.
 */
PhaseResult
runPhase(serve::InferenceServer &server, const Workload &w,
         const std::vector<LabelledImage> &pool, uint64_t seed,
         uint64_t stream, size_t interval, size_t first_index,
         double seconds, Tracer &tracer, int parent)
{
    struct Pending
    {
        size_t index;
        RequestSpec spec;
        double due, sent;
        Clock::time_point sent_at;
        std::future<InferenceResult> fut;
    };

    PhaseResult out;
    out.before = server.metricsSnapshot();
    const std::vector<double> schedule =
        w.open_loop ? poissonSchedule(mixSeed(seed, stream, interval),
                                      w.rate_rps, seconds, 1)
                    : std::vector<double>{};
    std::deque<Pending> pending;
    size_t next = first_index;
    const size_t end_index = first_index + schedule.size();
    const Clock::time_point t0 = Clock::now();
    auto due_at = [&](size_t i) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[i]));
    };

    auto send = [&](double due) {
        const RequestSpec spec =
            requestSpec(seed, stream, next, pool.size(), w.mix);
        serve::RequestOptions opts;
        opts.accuracy = spec.cls;
        opts.seed = spec.engine_seed;
        const Clock::time_point at = Clock::now();
        const double sent = since(t0, at);
        pending.push_back({next, spec, w.open_loop ? due : sent, sent, at,
                           server.submit(pool[spec.image].image, opts)});
        ++next;
    };
    auto harvest = [&](Pending &p, Clock::time_point seen_at) {
        Answer a;
        a.index = p.index;
        a.spec = p.spec;
        a.t = {p.due, p.sent, since(t0, seen_at)};
        try {
            a.r = p.fut.get();
            a.ok = true;
        } catch (const std::exception &) {
            ++out.errors;
        }
        tracer.add(std::string("request.") +
                       kClassNames[static_cast<size_t>(p.spec.cls)],
                   "serve", p.sent_at, seen_at, parent,
                   static_cast<int64_t>(p.index));
        out.answers.push_back(std::move(a));
    };

    while (true) {
        Clock::time_point now = Clock::now();
        const double t = since(t0, now);
        if (w.open_loop) {
            while (next < end_index && schedule[next - first_index] <= t)
                send(schedule[next - first_index]);
        } else {
            while (pending.size() < w.window && t < seconds)
                send(0.0);
        }
        const bool more = w.open_loop ? next < end_index : t < seconds;
        if (pending.empty()) {
            if (!more)
                break;
            if (w.open_loop)
                std::this_thread::sleep_until(due_at(next - first_index));
            continue;
        }
        if (w.open_loop) {
            Clock::time_point until = now + std::chrono::milliseconds(1);
            if (next < end_index)
                until = std::min(until, due_at(next - first_index));
            pending.front().fut.wait_until(until);
        } else {
            pending.front().fut.wait();
        }
        now = Clock::now();
        for (auto it = pending.begin(); it != pending.end();) {
            if (it->fut.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                harvest(*it, now);
                it = pending.erase(it);
            } else {
                ++it;
            }
        }
    }
    out.after = server.metricsSnapshot();
    return out;
}

/**
 * Samples the host's speed while the benchmark measures: a thread that
 * times one probeWork(kProbeRounds) call every kProbeEvery. Each call is
 * timed in the thread's own CPU time, so waiting for a core the served
 * program holds does not count; a core the host runs slowly does. The
 * probe costs ~1% of one core.
 */
class HostProbe
{
  public:
    HostProbe() : thread_([this] { loop(); }) {}
    HostProbe(const HostProbe &) = delete;
    HostProbe &operator=(const HostProbe &) = delete;

    ~HostProbe()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    /** Host slowdown since the previous call: the mean call time of the
     *  samples taken in between, over kProbeRefMs; 1 (no correction)
     *  if none was taken. */
    double slowdown()
    {
        std::lock_guard<std::mutex> lk(mu_);
        const double ms = mean(samples_);
        samples_.clear();
        return ms > 0.0 ? ms / kProbeRefMs : 1.0;
    }

  private:
    static double cpuMs()
    {
        timespec t{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
        return static_cast<double>(t.tv_sec) * 1e3 +
               static_cast<double>(t.tv_nsec) / 1e6;
    }

    /** Samples until stopped; if storing a sample fails, sampling ends
     *  and the phases use the samples taken so far. */
    void loop()
    {
        volatile uint64_t sink = 0;
        std::unique_lock<std::mutex> lk(mu_);
        try {
            while (!stop_) {
                lk.unlock();
                const double a = cpuMs();
                sink = sink + probeWork(kProbeRounds);
                const double ms = cpuMs() - a;
                lk.lock();
                samples_.push_back(ms);
                cv_.wait_for(lk, kProbeEvery, [this] { return stop_; });
            }
        } catch (const std::bad_alloc &) {
            std::fprintf(stderr, "host probe: out of memory, stopped\n");
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::vector<double> samples_;
    std::thread thread_;
};

/** One measured interval: its requests and the host slowdown during it. */
struct Interval
{
    PhaseResult phase;
    double slowdown = 1.0;
    bool traced = false;
};

/**
 * The measured phase: @p count intervals of @p seconds each, one request
 * stream numbered across them, each with the host slowdown probed during
 * it. With a @p tracer, every second interval is traced, under a span of
 * its own.
 */
std::vector<Interval>
runIntervals(serve::InferenceServer &server, const Workload &w,
             const std::vector<LabelledImage> &pool, uint64_t seed,
             size_t count, double seconds, HostProbe &probe, Tracer *tracer)
{
    Tracer off(false);
    std::vector<Interval> out;
    size_t next_index = 0;
    for (size_t k = 0; k < count; ++k) {
        Interval iv;
        iv.traced = tracer != nullptr && k % 2 == 1;
        Tracer &t = iv.traced ? *tracer : off;
        probe.slowdown(); // start the interval's samples
        const int span = t.open("interval." + std::to_string(k), "bench", -1);
        iv.phase = runPhase(server, w, pool, seed, kStreamMeasured, k,
                            next_index, seconds, t, span);
        t.close(span);
        next_index += iv.phase.answers.size();
        iv.slowdown = probe.slowdown();
        out.push_back(std::move(iv));
    }
    return out;
}

/** End-to-end numbers over the intervals that are (or are not) traced. */
PhaseReport
phaseStats(const std::vector<Interval> &intervals, const Workload &w,
           double seconds, bool traced)
{
    std::vector<IntervalTimes> times;
    for (const Interval &iv : intervals) {
        if (iv.traced != traced)
            continue;
        IntervalTimes it;
        it.seconds = seconds;
        it.slowdown = iv.slowdown;
        for (const Answer &a : iv.phase.answers)
            if (a.ok)
                it.reqs.push_back(a.t);
        times.push_back(std::move(it));
    }
    return phaseReport(times, !w.open_loop);
}

/** Re-check every kGateEvery-th answer against a direct predictWith.
 *  The checks are independent, so they fan out over the compute pool
 *  (each runs single-threaded inside its worker). */
size_t
gatePhase(const System &sys, ThreadPool &pool,
          const std::vector<LabelledImage> &images,
          const std::vector<Answer> &answers, size_t &checked)
{
    std::vector<const Answer *> due;
    for (const Answer &a : answers)
        if (a.ok && a.index % kGateEvery == 0)
            due.push_back(&a);
    std::vector<std::string> why(due.size());
    scdcnn::parallelFor(pool, 0, due.size(), [&](size_t i) {
        const Answer &a = *due[i];
        const serve::QosPolicy &policy =
            sys.server->config().qos[static_cast<size_t>(a.spec.cls)];
        why[i] = gateMismatch(*sys.net, images[a.spec.image].image,
                              a.spec.cls, a.spec.engine_seed,
                              policy.predictOptions(), a.r, kStreamLen);
    });
    checked += due.size();
    size_t mismatches = 0;
    for (size_t i = 0; i < due.size(); ++i) {
        if (why[i].empty())
            continue;
        ++mismatches;
        std::fprintf(stderr, "gate: request %zu: %s\n", due[i]->index,
                     why[i].c_str());
    }
    return mismatches;
}

/** Held-out accuracy per class: a fixed seeded image set per class,
 *  served through the same server with 2 x max_batch in flight. */
struct AccuracyPass
{
    std::array<double, 3> accuracy{};
    size_t attempted = 0, errors = 0;
};

AccuracyPass
runAccuracyPass(const System &sys, const Workload &w, uint64_t seed)
{
    AccuracyPass out;
    for (size_t c = 0; c < 3; ++c) {
        const size_t n = kAccuracyImages[c];
        std::deque<std::pair<size_t, std::future<InferenceResult>>> live;
        std::vector<size_t> labels(n);
        size_t correct = 0;
        auto finish = [&]() {
            try {
                correct +=
                    live.front().second.get().predicted ==
                    labels[live.front().first];
            } catch (const std::exception &) {
                ++out.errors;
            }
            live.pop_front();
        };
        const uint64_t class_key = mixSeed(seed, kStreamAccuracy, c);
        for (size_t i = 0; i < n; ++i) {
            const uint64_t key = mixSeed(class_key, i);
            const LabelledImage li = makeImage(key, w.noise_sigma);
            labels[i] = li.label;
            serve::RequestOptions opts;
            opts.accuracy = static_cast<AccuracyClass>(c);
            opts.seed = mixSeed(key, kStreamAccuracy);
            live.emplace_back(i, sys.server->submit(li.image, opts));
            if (live.size() >= 2 * kMaxBatch)
                finish();
        }
        while (!live.empty())
            finish();
        out.attempted += n;
        out.accuracy[c] =
            static_cast<double>(correct) / static_cast<double>(n);
    }
    return out;
}

// ---------------------------------------------------- per-layer probes

/** Median seconds per call of @p fn, over at least @p min_samples
 *  samples and @p budget_s seconds. A sample times @p inner consecutive
 *  calls (so a short kernel stays well above the clock resolution) and
 *  is one span; fn gets the running call number. */
double
probeMedian(Tracer &tracer, int parent, const std::string &name,
            const char *layer, size_t min_samples, double budget_s,
            size_t inner, const std::function<void(size_t)> &fn)
{
    std::vector<double> per_call;
    size_t call = 0;
    const Clock::time_point start = Clock::now();
    for (size_t n = 0;
         n < min_samples || since(start, Clock::now()) < budget_s; ++n) {
        const Clock::time_point a = Clock::now();
        for (size_t i = 0; i < inner; ++i)
            fn(call++);
        const Clock::time_point b = Clock::now();
        per_call.push_back(since(a, b) / static_cast<double>(inner));
        tracer.add(name, layer, a, b, parent);
    }
    return nearestRank(per_call, 50).value;
}

void
fillRandom(uint64_t *words, size_t n_words, size_t length, SplitMix64 &rng)
{
    for (size_t i = 0; i < n_words; ++i)
        words[i] = rng.next();
    if (length % 64 != 0)
        words[n_words - 1] &= (uint64_t{1} << (length % 64)) - 1;
}

/** A named metric with its unit. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Kernel probes at the trained net's largest conv stage (the pooled
 *  stage with the widest fan-in), on seeded random operands of the
 *  stage's exact geometry. Bytes per call are computed from the
 *  operand sizes, not measured. */
void
probeKernels(const core::ScNetwork &net, Tracer &tracer, int parent,
             std::vector<Metric> &out)
{
    const nn::NetworkPlan &plan = net.plan();
    size_t stage = 0;
    for (size_t l = 0; l < plan.stages.size(); ++l)
        if (plan.stages[l].pooled &&
            plan.stages[l].fan_in > plan.stages[stage].fan_in)
            stage = l;
    const size_t taps = plan.stages[stage].fan_in + 1; // bias included
    const size_t len = kStreamLen;
    const size_t words = len / 64;
    const size_t lanes = sc::kFilterLanes;
    const size_t seg_words = net.config().stream_segment_words;
    const size_t seg_cycles = seg_words * 64;
    constexpr size_t kBatch = kMaxBatch;
    SplitMix64 rng(0x5C0DE);

    sc::StreamArena in;
    in.reset(taps, len);
    std::vector<sc::BitstreamView> xs(taps);
    for (size_t t = 0; t < taps; ++t) {
        fillRandom(in.wordsAt(t), words, len, rng);
        xs[t] = in.view(t);
    }
    sc::InterleavedWeightArena wts;
    wts.reset(lanes, taps, len);
    std::vector<uint64_t> tmp(words);
    for (size_t f = 0; f < lanes; ++f)
        for (size_t t = 0; t < taps; ++t) {
            fillRandom(tmp.data(), words, len, rng);
            wts.assign(f, t, sc::BitstreamView(tmp.data(), len));
        }
    const sc::WeightBlockView block = wts.block(0);
    constexpr size_t kKernelSamples = 31;

    // Per-image path: one segment of one pooling window.
    std::vector<uint16_t> counts(lanes * seg_cycles);
    const double multi_ns =
        1e9 * probeMedian(tracer, parent, "fusedProductCountsMulti", "sc",
                          kKernelSamples, 0.0, 200, [&](size_t) {
                              sc::fusedProductCountsMulti(
                                  xs, block, true, 0, seg_words,
                                  counts.data(), seg_cycles);
                          });
    out.push_back({"sc.product_counts_multi.ns", multi_ns, "ns"});
    out.push_back({"sc.product_counts_multi.bytes",
                   double(taps * seg_words * 8 +
                          lanes * taps * seg_words * 8 +
                          lanes * seg_cycles * 2),
                   "B"});

    // Batch path: the whole stream (full-precision batches run
    // unsegmented) for a full micro-batch.
    sc::BatchStreamArena bin;
    bin.reset(taps, kBatch, len);
    std::vector<sc::BitstreamView> xs0(taps);
    std::vector<size_t> strides(taps, bin.strideWords());
    for (size_t t = 0; t < taps; ++t) {
        for (size_t b = 0; b < kBatch; ++b)
            fillRandom(bin.wordsAt(t, b), words, len, rng);
        xs0[t] = bin.view(t, 0);
    }
    std::vector<uint32_t> images(kBatch);
    for (size_t b = 0; b < kBatch; ++b)
        images[b] = static_cast<uint32_t>(b);
    std::vector<uint16_t> bcounts(kBatch * lanes * len);
    const double batch_ns =
        1e9 * probeMedian(tracer, parent, "fusedProductCountsMultiBatch",
                          "sc", kKernelSamples, 0.0, 4, [&](size_t) {
                              sc::fusedProductCountsMultiBatch(
                                  xs0, strides, images.data(), kBatch,
                                  block, true, 0, words, bcounts.data(),
                                  len, lanes * len);
                          });
    out.push_back({"sc.product_counts_multi_batch.ns", batch_ns, "ns"});
    out.push_back({"sc.product_counts_multi_batch.bytes",
                   double(kBatch * taps * words * 8 +
                          lanes * taps * words * 8 +
                          kBatch * lanes * len * 2),
                   "B"});

    // Btanh word step over one segment of pooled counts.
    const sc::BtanhBatchTable table(net.layerStateCount(stage),
                                    static_cast<unsigned>(taps));
    std::vector<uint16_t> pooled(seg_cycles);
    for (uint16_t &c : pooled)
        c = static_cast<uint16_t>(rng.nextBelow(taps + 1));
    std::vector<uint64_t> act(seg_words);
    uint16_t state = table.initialState();
    const double btanh_ns =
        1e9 * probeMedian(tracer, parent, "BtanhBatchTable::transformWords",
                          "sc", kKernelSamples, 0.0, 200, [&](size_t) {
                              table.transformWords(pooled.data(),
                                                   seg_cycles, act.data(),
                                                   &state);
                          });
    out.push_back({"sc.btanh_words.ns", btanh_ns, "ns"});
    out.push_back({"sc.btanh_words.bytes",
                   double(seg_cycles * 2 + seg_words * 8), "B"});

    // Binary backend: one window's fan-in as a single packed stream.
    const size_t bits = taps;
    const size_t bwords = (bits + 63) / 64;
    std::vector<uint64_t> x(bwords);
    fillRandom(x.data(), bwords, bits, rng);
    sc::InterleavedWeightArena bw;
    bw.reset(lanes, 1, bits);
    std::vector<uint64_t> btmp(bwords);
    for (size_t f = 0; f < lanes; ++f) {
        fillRandom(btmp.data(), bwords, bits, rng);
        bw.assign(f, 0, sc::BitstreamView(btmp.data(), bits));
    }
    const sc::WeightBlockView bblock = bw.block(0);
    std::array<uint32_t, sc::kFilterLanes> matches{};
    const double xnor_ns =
        1e9 * probeMedian(tracer, parent, "fusedXnorPopcountMulti", "sc",
                          kKernelSamples, 0.0, 2000, [&](size_t) {
                              sc::fusedXnorPopcountMulti(
                                  sc::BitstreamView(x.data(), bits), bblock,
                                  matches.data());
                          });
    out.push_back({"sc.xnor_popcount_multi.ns", xnor_ns, "ns"});
    out.push_back({"sc.xnor_popcount_multi.bytes",
                   double(bwords * 8 + lanes * bwords * 8 + lanes * 4),
                   "B"});
}

/** Direct core and pool probes on the served net and pinned pool, with
 *  the workload's own images and seeds. */
void
probeCore(const System &sys, ThreadPool &pool,
          const std::vector<LabelledImage> &images, uint64_t seed,
          Tracer &tracer, int parent, std::vector<Metric> &out)
{
    const auto &qos = sys.server->config().qos;
    const core::ScNetwork &net = *sys.net;
    auto img = [&](size_t i) -> const Tensor & {
        return images[i % images.size()].image;
    };
    auto seedOf = [&](size_t i) { return mixSeed(seed, 0xC02E, i); };

    const std::array<std::pair<size_t, double>, 3> reps = {
        {{12, 0.25}, {12, 0.25}, {200, 0.1}}};
    for (size_t c = 0; c < 3; ++c) {
        const PredictOptions opts = qos[c].predictOptions();
        const double s = probeMedian(
            tracer, parent, std::string("predictWith.") + kClassNames[c],
            "core", reps[c].first, reps[c].second, 1, [&](size_t i) {
                net.predictWith(img(i), seedOf(i), opts);
            });
        out.push_back({std::string("core.predict_ms.") + kClassNames[c],
                       s * 1e3, "ms"});
    }

    struct BatchProbe
    {
        size_t cls, n, min_reps;
    };
    for (const BatchProbe bp : {BatchProbe{0, 1, 12}, BatchProbe{0, 8, 8},
                                BatchProbe{1, 2, 10},
                                BatchProbe{2, 8, 100}}) {
        const PredictOptions opts = qos[bp.cls].predictOptions();
        const std::string tag = std::string(kClassNames[bp.cls]) + ".b" +
                                std::to_string(bp.n);
        const double s = probeMedian(
            tracer, parent, "forwardBatch." + tag, "core", bp.min_reps,
            0.25, 1, [&](size_t rep) {
                std::vector<Tensor> batch;
                std::vector<uint64_t> seeds;
                for (size_t j = 0; j < bp.n; ++j) {
                    batch.push_back(img(rep * bp.n + j));
                    seeds.push_back(seedOf(rep * bp.n + j));
                }
                std::vector<core::ForwardInfo> infos;
                net.forwardBatch(batch, seeds, opts, &pool, &infos);
            });
        out.push_back({"core.batch_ms." + tag, s * 1e3, "ms"});
    }

    const double fj = probeMedian(
        tracer, parent, "parallelFor.empty", "pool", 2000, 0.1, 1,
        [&](size_t) {
            scdcnn::parallelFor(pool, 0, pool.size(), [](size_t) {});
        });
    out.push_back({"pool.fork_join_us", fj * 1e6, "us"});
}

/** Per-layer serve metrics of the traced intervals, as measured. */
void
serveLayerMetrics(const std::vector<Interval> &intervals,
                  std::vector<Metric> &out)
{
    std::vector<double> queue, compute, resolve;
    std::array<std::vector<double>, 3> lat_by_class, bits_by_class;
    std::vector<double> lat;
    size_t bal = 0, bal_exit = 0;
    double batches = 0.0, done = 0.0;
    std::array<double, 4> closed{};
    for (const Interval &iv : intervals) {
        if (!iv.traced)
            continue;
        const PhaseResult &ph = iv.phase;
        batches += static_cast<double>(ph.after.batches - ph.before.batches);
        done += static_cast<double>(ph.after.completed - ph.before.completed);
        for (size_t r = 0; r < closed.size(); ++r)
            closed[r] += static_cast<double>(ph.after.close_reasons[r] -
                                             ph.before.close_reasons[r]);
        for (const Answer &a : ph.answers) {
            if (!a.ok)
                continue;
            const size_t c = static_cast<size_t>(a.spec.cls);
            const double client_ms = (a.t.seen - a.t.sent) * 1e3;
            queue.push_back(a.r.queue_ms);
            compute.push_back(a.r.total_ms - a.r.queue_ms);
            resolve.push_back(client_ms - a.r.total_ms);
            lat.push_back(a.t.latencyMs());
            lat_by_class[c].push_back(a.t.latencyMs());
            bits_by_class[c].push_back(static_cast<double>(a.r.effective_bits));
            if (a.spec.cls == AccuracyClass::Balanced) {
                ++bal;
                bal_exit += a.r.early_exit;
            }
        }
    }
    out.push_back({"serve.queue_wait_ms.p50", nearestRank(queue, 50).value,
                   "ms"});
    out.push_back({"serve.queue_wait_ms.p90", nearestRank(queue, 90).value,
                   "ms"});
    out.push_back({"serve.compute_ms.p50", nearestRank(compute, 50).value,
                   "ms"});
    out.push_back({"serve.resolve_ms.p50", nearestRank(resolve, 50).value,
                   "ms"});
    out.push_back({"serve.batch_size.mean",
                   batches > 0 ? done / batches : 0.0, "count"});
    const char *reasons[4] = {"full", "delay", "expedited", "drain"};
    for (size_t r = 0; r < 4; ++r)
        out.push_back(
            {std::string("serve.batches.") + reasons[r], closed[r], "count"});
    out.push_back({"serve.early_exit_frac.balanced",
                   bal > 0 ? double(bal_exit) / double(bal) : 0.0,
                   "frac"});
    for (size_t c = 0; c < 3; ++c)
        out.push_back({std::string("serve.effective_bits.mean.") +
                           kClassNames[c],
                       mean(bits_by_class[c]), "bits"});
    for (size_t c = 0; c < 3; ++c)
        out.push_back({std::string("serve.latency_ms.p50.") +
                           kClassNames[c],
                       nearestRank(lat_by_class[c], 50).value, "ms"});
    out.push_back({"serve.latency_ms.p90", nearestRank(lat, 90).value,
                   "ms"});
    out.push_back({"serve.latency_ms.p99", nearestRank(lat, 99).value,
                   "ms"});
}

// -------------------------------------------------------------- output

std::string
fingerprintJson(const Workload &w, uint64_t seed, double seconds,
                int trace)
{
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"nproc\": %u, \"compute_pool\": %zu, \"simd\": %s, "
        "\"compiler\": \"%s\", \"build_type\": \"%s\", "
        "\"bitstream_len\": %zu, \"network\": "
        "\"mini-lenet/max/apc-apc-apc\", \"max_batch\": %zu, "
        "\"max_queue_delay_us\": %lld, \"batch_workers\": %zu, "
        "\"workload\": \"%s\", "
        "\"seed\": %llu, \"seconds\": %.17g, \"trace\": %d}",
        std::thread::hardware_concurrency(), kComputeThreads,
        sc::simd::enabled() ? "true" : "false", __VERSION__,
        SERVEBENCH_BUILD_TYPE, kStreamLen, kMaxBatch,
        static_cast<long long>(kMaxQueueDelay.count()), w.batch_workers,
        w.name,
        static_cast<unsigned long long>(seed), seconds, trace);
    return buf;
}

/** Per-interval slowdown and as-measured numbers, to see where in a run
 *  the host moved. */
std::string
intervalsJson(const std::vector<Interval> &intervals, const Workload &w,
              double seconds)
{
    std::string s = "[";
    for (size_t k = 0; k < intervals.size(); ++k) {
        const PhaseReport r = phaseStats({intervals[k]}, w, seconds,
                                         intervals[k].traced);
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"slowdown\": %.4f, \"traced\": %s, \"ips\": "
                      "%.3f, \"p50_ms\": %.3f, \"p90_ms\": %.3f}",
                      k ? ", " : "", intervals[k].slowdown,
                      intervals[k].traced ? "true" : "false", r.raw_ips,
                      r.raw_p50_ms, r.raw_p90_ms);
        s += buf;
    }
    return s + "]";
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit);
        s += buf;
    }
    return s + "}";
}

struct Args
{
    const Workload *workload = nullptr;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string out_dir = ".bench_build/results";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            for (const Workload &w : kWorkloads)
                if (v == w.name)
                    a.workload = &w;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
        } else if (k == "--out-dir") {
            a.out_dir = v;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return argc % 2 == 1 && a.workload != nullptr && a.seconds > 0.0 &&
           (a.trace == 0 || a.trace == 1);
}

int
run(const Args &args)
{
    const Workload &w = *args.workload;
    const std::string fingerprint =
        fingerprintJson(w, args.seed, args.seconds, args.trace);
    std::printf("fingerprint %s\n", fingerprint.c_str());
    Clock::time_point mark = Clock::now();
    auto lap = [&](const char *what) {
        const Clock::time_point now = Clock::now();
        std::fprintf(stderr, "phase %-9s %7.2f s\n", what,
                     since(mark, now));
        mark = now;
    };

    // Input preparation (not set-up): identical weights on every run.
    const nn::Network trained = trainNetwork();
    std::vector<LabelledImage> pool;
    for (size_t i = 0; i < kPoolImages; ++i)
        pool.push_back(
            makeImage(mixSeed(args.seed, kStreamPool, i), w.noise_sigma));
    lap("inputs");

    // Set-up: network + server construction up to the first (cold)
    // answer, repeated; the median, over the host slowdown during the
    // repeats, is reported.
    ThreadPool compute(kComputeThreads);
    System sys;
    HostProbe probe;
    std::vector<double> raw_setup_s;
    for (size_t k = 0; k < kSetupRepeats; ++k) {
        sys.reset();
        const Clock::time_point a = Clock::now();
        sys.net =
            std::make_unique<core::ScNetwork>(trained, networkConfig());
        sys.server = std::make_unique<serve::InferenceServer>(
            *sys.net, serverConfig(compute, w));
        serve::RequestOptions opts;
        opts.accuracy = AccuracyClass::High;
        opts.seed = mixSeed(args.seed, kStreamSetup, k);
        sys.server->submit(pool[k].image, opts).get();
        raw_setup_s.push_back(since(a, Clock::now()));
    }
    const double raw_setup = nearestRank(raw_setup_s, 50).value;
    const double setup_slowdown = probe.slowdown();
    lap("setup");

    Tracer off(false);
    runPhase(*sys.server, w, pool, args.seed, kStreamWarmup, 0, 0,
             kWarmupSeconds, off, -1);
    lap("warmup");

    // The measured phase; a traced run alternates untraced and traced
    // intervals, so host drift lands on both halves alike.
    const double interval_s = args.seconds / static_cast<double>(kIntervals);
    Tracer tracer(args.trace == 1);
    const std::vector<Interval> intervals = runIntervals(
        *sys.server, w, pool, args.seed, kIntervals * (1 + args.trace),
        interval_s, probe, args.trace == 1 ? &tracer : nullptr);
    lap("measured");
    const PhaseReport ms = phaseStats(intervals, w, interval_s, false);
    size_t attempted = 0, failed = 0, checked = 0;
    for (const Interval &iv : intervals) {
        attempted += iv.phase.answers.size();
        failed += iv.phase.errors + gatePhase(sys, compute, pool,
                                              iv.phase.answers, checked);
    }
    lap("gate");

    std::vector<Metric> metrics;
    std::string extra;
    char buf[512];
    if (args.trace == 0) {
        const AccuracyPass acc = runAccuracyPass(sys, w, args.seed);
        attempted += acc.attempted;
        failed += acc.errors;
        lap("accuracy");
        metrics = {
            {"setup_s", raw_setup / setup_slowdown, "s"},
            {"ips", ms.ips, "1/s"},
            {"p50_ms", ms.p50_ms, "ms"},
            {"accuracy_high", acc.accuracy[0], "frac"},
            {"accuracy_balanced", acc.accuracy[1], "frac"},
            {"accuracy_fast", acc.accuracy[2], "frac"},
        };
        std::snprintf(buf, sizeof buf,
                      "\"p90_ms\": %.6f, \"accuracy_images\": [%zu, %zu, "
                      "%zu], ",
                      ms.p90_ms, kAccuracyImages[0], kAccuracyImages[1],
                      kAccuracyImages[2]);
        extra = buf;
    } else {
        const PhaseReport ts = phaseStats(intervals, w, interval_s, true);
        serveLayerMetrics(intervals, metrics);
        const int probes = tracer.open("probes", "bench", -1);
        probeCore(sys, compute, pool, args.seed, tracer, probes, metrics);
        probeKernels(*sys.net, tracer, probes, metrics);
        tracer.close(probes);
        lap("probes");
        auto frac = [](double num, double den) {
            return den > 0.0 ? num / den : 0.0;
        };
        metrics.push_back({"obs.trace_overhead_frac.p50_ms",
                           frac(ts.p50_ms - ms.p50_ms, ms.p50_ms), "frac"});
        metrics.push_back({"obs.trace_overhead_frac.ips",
                           frac(ms.ips - ts.ips, ms.ips), "frac"});

        std::filesystem::create_directories(args.out_dir);
        const std::string trace_path =
            args.out_dir + "/" + w.name + "-seed" +
            std::to_string(args.seed) + ".trace.json";
        if (!writeChromeTrace(trace_path, tracer.spans(), fingerprint))
            std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        extra = "\"trace_file\": \"" + trace_path + "\", \"self_us\": {";
        bool first = true;
        for (const auto &[layer, us] : selfTimeByLayer(tracer.spans())) {
            std::snprintf(buf, sizeof buf, "%s\"%s\": %.3f",
                          first ? "" : ", ", layer.c_str(), us);
            extra += buf;
            first = false;
            std::printf("self time %-6s %12.3f ms\n", layer.c_str(),
                        us / 1e3);
        }
        extra += "}, ";
    }

    const double failed_frac =
        attempted ? static_cast<double>(failed) / attempted : 1.0;
    for (const Metric &m : metrics)
        std::printf("%-40s %14.6f %s\n", m.name.c_str(), m.value, m.unit);
    // The tail is reported but carries no bound: on a shared VM, host
    // episodes that the probe does not see raised it by 30-50% in 3 runs
    // of 10, and its spread over ten runs passed 0.25 in two of three sets.
    std::printf("%-40s %14.6f ms (no bound)\n", "p90_ms", ms.p90_ms);
    std::printf("%-40s %14zu (%zu intervals, fewest %zu per interval)\n",
                "latency_samples", ms.samples, kIntervals,
                ms.interval_samples);
    std::printf("%-40s %14.6f frac (%zu of %zu, %zu gate checks)\n",
                "failed_frac", failed_frac, failed, attempted, checked);
    std::printf("%-40s %14.3f ms (p99 %.3f ms)\n",
                "generator_lateness_max", ms.max_lateness_ms,
                ms.lateness_p99.value);
    // Timings above are at the reference host's speed; as measured here:
    std::printf("%-40s %14.6f (set-up %.4f; probe call %.4f ms on the "
                "reference host)\n",
                "host_slowdown", ms.slowdown, setup_slowdown, kProbeRefMs);
    std::printf("%-40s setup_s %.6f s, ips %.6f 1/s, p50_ms %.6f ms, "
                "p90_ms %.6f ms\n",
                "as_measured", raw_setup, ms.raw_ips, ms.raw_p50_ms,
                ms.raw_p90_ms);

    std::filesystem::create_directories(args.out_dir);
    const std::string result_path =
        args.out_dir + "/" + w.name + "-seed" + std::to_string(args.seed) +
        "-trace" + std::to_string(args.trace) + ".json";
    std::ofstream rf(result_path);
    rf << "{\"fingerprint\": " << fingerprint
       << ", \"metrics\": " << metricsJson(metrics)
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"failed_frac\": " << failed_frac
       << ", \"gate_checks\": " << checked
       << ", \"latency_samples\": " << ms.samples
       << ", \"interval_samples\": " << ms.interval_samples
       << ", \"generator_lateness_ms\": {\"max\": "
       << ms.max_lateness_ms
       << ", \"p99\": " << ms.lateness_p99.value << "}, " << extra
       << "\"intervals\": " << intervalsJson(intervals, w, interval_s)
       << ", \"host_slowdown\": " << ms.slowdown
       << ", \"setup_slowdown\": " << setup_slowdown
       << ", \"as_measured\": {\"setup_s\": " << raw_setup
       << ", \"ips\": " << ms.raw_ips << ", \"p50_ms\": " << ms.raw_p50_ms
       << ", \"p90_ms\": " << ms.raw_p90_ms << "}}\n";

    const bool correct = failed == 0 && attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metricsJson(metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace servebench

int
main(int argc, char **argv)
{
    servebench::Args args;
    if (!servebench::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: serve_bench --workload single|saturated|mixed "
                     "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
        return 2;
    }
    return servebench::run(args);
}
