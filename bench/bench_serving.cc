/**
 * @file
 * Serving gate bench: the serving scenarios CI checks, and nothing
 * else. Steady-state serving throughput and latency are measured by
 * servebench/; this bench produces the three gate blocks that
 * tools/bench_check.py enforces on BENCH_serving.json (override the
 * path with SCDCNN_SERVE_JSON).
 *
 * Four open-loop rows (Poisson arrivals against one InferenceServer)
 * run from one table and differ only in their data: server config,
 * request options, offered load, warm-up shots, High-class mix and
 * burst size. Offered loads are multiples of the per-request capacity
 * calibrated from the median fused-predict latency, so "1.5x" means
 * the same thing on every box.
 *
 *   per_request@1.5x  max_batch=1, full-precision High, no deadline
 *   microbatch@1.5x   dynamic micro-batching + Balanced progressive
 *                     precision; "gate": must beat per_request
 *   overload@1.0x     the hardened config (bounded per-class
 *   overload@2.5x     admission, doomed-request shedding, deadline-
 *                     armed cancellation); "overload_gate": goodput at
 *                     2.5x must hold up, and admission control,
 *                     shedding and expediting must all engage
 *
 * The 2.5x row ends with a queue-full burst sent while the only batch
 * worker is held at a FaultPoint::WorkerPop stall, so the class cap
 * rejects the overflow on any core count and the admitted rest is
 * shed once the worker resumes. With SCDCNN_SERVE_TRACE=<path> that
 * row runs with tracing armed and exports a Chrome trace for
 * tools/trace_check.py.
 *
 * The network is the decisive-logit LeNet-5 variant (output layer
 * programmed to +1/-1/0 rows — the confident regime a trained network
 * produces) so Progressive early exit behaves as it does on trained
 * weights; see bench_throughput.cc for the rationale.
 *
 * The fleet section measures model-fleet isolation: three models
 * (lenet5, lenet-l, mlp) behind one ModelRegistry sharing the global
 * compute pool, each first measured solo, then all three under mixed
 * load while the lenet5 model is poisoned mid-run with injected
 * execution faults. Its circuit breaker must quarantine it (fast
 * rejects, no compute) and later recover it through half-open probes,
 * while the healthy models hold their solo goodput — the "fleet_gate"
 * block records the healthy-goodput ratio, the poisoned model's
 * quarantine/recovery trajectory, a bit-exactness sentinel and the
 * flight-recorder dump count.
 *
 * Knobs: SCDCNN_SERVE_LEN (bit-stream length, default 256),
 * SCDCNN_SERVE_IMAGES (requests per scenario, default 48),
 * SCDCNN_SERVE_FLEET_IMAGES (fleet requests per model, default
 * max(8, images/4)), SCDCNN_SERVE_JSON, SCDCNN_SERVE_TRACE.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <latch>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/sc_network.h"
#include "nn/dataset.h"
#include "nn/network.h"
#include "nn/topology.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "serve/artifact.h"
#include "serve/fault_injection.h"
#include "serve/model_registry.h"
#include "serve/server.h"

using namespace scdcnn;
using SteadyClock = std::chrono::steady_clock;

namespace {

/** Micro-batch bound of the batching scenarios. */
constexpr size_t kMaxBatch = 8;

/** Scenario walls are measured with obs::ScopedSpan (which reads its
 *  clock whether or not tracing is armed), so when a traced run is
 *  requested the same interval that produces the printed numbers
 *  appears as a "scenario" span in the exported trace. */
double
spanWallMs(obs::ScopedSpan &span)
{
    return static_cast<double>(span.finish()) * 1e-6;
}

/** Events per second over a wall in milliseconds (0 for no wall). */
double
perSecond(uint64_t count, double wall_ms)
{
    return wall_ms > 0 ? static_cast<double>(count) / (wall_ms / 1000.0)
                       : 0.0;
}

/** LeNet-5 with the output layer programmed to decisive +1/-1/0
 *  weight rows (see file comment). */
nn::Network
decisiveLenet5()
{
    nn::Network net = nn::buildLeNet5(nn::PoolingMode::Max, 1);
    nn::programDecisiveLogits(net);
    return net;
}

/** Full-precision single-image latency: the median of 9 fused
 *  predicts after one warm-up. The median keeps one slow predict
 *  (a descheduled thread, a cold cache) out of every offered load. */
double
calibrateMs(const core::ScNetwork &net)
{
    const nn::Tensor img = nn::DigitDataset::render(3, 7);
    net.predict(img, 1); // warm-up
    std::vector<double> ms(9);
    for (size_t r = 0; r < ms.size(); ++r) {
        const SteadyClock::time_point t0 = SteadyClock::now();
        net.predict(img, 2 + r);
        ms[r] = std::chrono::duration<double, std::milli>(
                    SteadyClock::now() - t0)
                    .count();
    }
    std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
    return ms[ms.size() / 2];
}

/**
 * Every scenario's server config and request options, derived from one
 * measured fused-predict latency so "1.5x capacity" and "a deadline of
 * six service times" mean the same thing on every box. Shared by the
 * scenario table and the fleet registry (which uses @p hardened as its
 * per-model server template).
 */
struct ServingSetup
{
    serve::ServerConfig per_request; //!< max_batch=1, full precision
    serve::ServerConfig micro;       //!< dynamic batching + QoS derive
    serve::ServerConfig hardened;    //!< micro + admission/shed/cancel
    serve::RequestOptions high;      //!< High class, no deadline
    serve::RequestOptions balanced;  //!< Balanced, generous deadline
    serve::RequestOptions deadlined; //!< Balanced, binding deadline
    double overload_deadline_ms = 0;
};

ServingSetup
buildServingSetup(double fused_ms, size_t len)
{
    ServingSetup s;

    // Per-request baseline: every request its own batch, full
    // precision, no deadline — serving without the subsystem's
    // policies.
    s.per_request.limits.max_batch = 1;
    s.per_request.limits.max_queue_delay =
        std::chrono::microseconds(100);
    // The throughput scenarios keep every admitted request: shedding
    // is what the overload rows measure, and turning it off here
    // keeps the gate series comparable with earlier runs.
    s.per_request.limits.shed_doomed = false;
    s.high.accuracy = serve::AccuracyClass::High;

    // Micro-batching + QoS: dynamic batches under (max_batch,
    // max_queue_delay), Balanced progressive precision, a deadline
    // generous at light load but binding under overload — queue
    // pressure degrades precision instead of blowing up latency.
    s.micro.limits.max_batch = kMaxBatch;
    s.micro.limits.max_queue_delay =
        std::chrono::microseconds(static_cast<long>(fused_ms * 250.0));
    s.micro.limits.shed_doomed = false; // see per_request comment
    const size_t min_bits = std::max<size_t>(64, len / 4);
    s.micro.qos[static_cast<size_t>(serve::AccuracyClass::Balanced)] = {
        core::EngineMode::Progressive, 4.0, min_bits};
    s.micro.qos[static_cast<size_t>(serve::AccuracyClass::Fast)] = {
        core::EngineMode::Progressive, 2.0,
        std::max<size_t>(64, len / 8)};
    s.balanced.accuracy = serve::AccuracyClass::Balanced;
    s.balanced.deadline = std::chrono::microseconds(
        static_cast<long>(fused_ms * 6000.0)); // ~6 service times

    // Overload hardening on top of micro: bounded per-class
    // admission, doomed-request shedding, deadline-armed cancellation.
    s.hardened = s.micro;
    s.hardened.limits.shed_doomed = true;
    s.hardened.limits.max_queue_per_class = 2 * kMaxBatch;
    s.hardened.cancel_on_deadline = true;
    s.deadlined = s.balanced;
    s.deadlined.deadline = std::chrono::microseconds(
        static_cast<long>(fused_ms * 8000.0)); // ~8 service times
    s.overload_deadline_ms = fused_ms * 8.0;
    return s;
}

/** A pending request together with its scheduled arrival offset, so
 *  a phase wall can be reconstructed from the requests themselves. */
struct TimedFuture
{
    std::future<serve::InferenceResult> fut;
    double at_ms; //!< scheduled arrival, relative to the phase start
};

/** Answers of a settled phase. */
struct Tally
{
    uint64_t ok = 0;     //!< futures that held a result
    uint64_t ok_met = 0; //!< ...that also met their deadline
    uint64_t failed = 0; //!< futures that held a ServeError
    /** Latest completion instant (arrival offset + measured total
     *  latency) across the answered requests. Measuring a model's wall
     *  from its own requests keeps the fleet's solo and mixed phases
     *  comparable — in the mixed phase, wall-clock "after the merged
     *  loop" would charge every model for the longest co-tenant
     *  schedule. */
    double wall_ms = 0;
};

/** Resolve @p futs into @p t. When @p answers is given, it receives
 *  each future's result in order, or nullopt for a ServeError
 *  (rejected, shed, cancelled, faulted). */
void
settleTimed(std::vector<TimedFuture> &futs, Tally &t,
            std::vector<std::optional<serve::InferenceResult>> *answers =
                nullptr)
{
    for (TimedFuture &tf : futs) {
        std::optional<serve::InferenceResult> r;
        try {
            r = tf.fut.get();
        } catch (const serve::ServeError &) {
            ++t.failed;
        }
        if (r.has_value()) {
            ++t.ok;
            if (r->deadline_met)
                ++t.ok_met;
            t.wall_ms = std::max(t.wall_ms, tf.at_ms + r->total_ms);
        }
        if (answers != nullptr)
            answers->push_back(std::move(r));
    }
    futs.clear();
}

/** Open-loop driver: @p n arrivals of a seeded Poisson process at
 *  @p ips, calling submit(i, arrival_ms) at each one. */
template <typename Submit>
void
poissonArrivals(size_t n, double ips, uint64_t seed, Submit &&submit)
{
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(ips);
    const SteadyClock::time_point t0 = SteadyClock::now();
    double arrival_s = 0.0;
    for (size_t i = 0; i < n; ++i) {
        arrival_s += gap(rng);
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<SteadyClock::duration>(
                     std::chrono::duration<double>(arrival_s)));
        submit(i, arrival_s * 1000.0);
    }
}

/** One row of the scenario table; the rows differ only in these
 *  fields. */
struct Scenario
{
    const char *name;
    serve::ServerConfig server;
    serve::RequestOptions opts;
    double load;       //!< offered load, x the per-request capacity
    size_t warmup;     //!< urgent requests before the timed phase
    size_t high_every; //!< every k-th timed request is High (0: none)
    size_t burst;      //!< queue-full burst after the timed phase
};

struct ScenarioResult
{
    double offered_ips = 0;
    double achieved_ips = 0; //!< answered requests per second
    double goodput_ips = 0;  //!< deadline-met answers per second
    serve::MetricsSnapshot metrics; //!< every phase of the row
};

/**
 * Run one table row on a fresh server, in three phases:
 *
 *   warm-up — @p row.warmup requests whose deadline equals
 *             max_queue_delay are urgent on arrival, forcing
 *             Expedited closes on a cold estimate;
 *   timed   — @p n Poisson arrivals at row.load x capacity. Every
 *             row.high_every-th request keeps the High class: mixed
 *             QoS is the normal serving regime, and the full-precision
 *             sliver walks every stream segment, so traced runs show
 *             the engine's per-segment phase spans at every depth.
 *             The row's ips and goodput cover this phase only;
 *   burst   — a High request with no deadline occupies the only batch
 *             worker, which a WorkerPop stall then holds until
 *             row.burst back-to-back 2 ms-deadline requests have been
 *             submitted. The class queue cap rejects the overflow in
 *             RequestQueue::push, and the admitted rest is doomed by
 *             the time the worker resumes and is shed.
 */
ScenarioResult
runScenario(const core::ScNetwork &net, const Scenario &row,
            double capacity_ips, size_t n)
{
    std::latch stalled(1);
    std::latch release(1);
    serve::FaultInjector faults;
    faults.setStallFn([&](std::chrono::microseconds) {
        stalled.count_down();
        release.wait();
    });
    serve::ServerConfig scfg = row.server;
    if (row.burst > 0)
        scfg.faults = &faults;
    serve::InferenceServer server(net, scfg);
    std::vector<TimedFuture> futs;
    Tally untimed; // warm-up and burst answers

    serve::RequestOptions urgent = row.opts;
    urgent.deadline = scfg.limits.max_queue_delay;
    for (size_t i = 0; i < row.warmup; ++i)
        futs.push_back(
            {server.submit(nn::DigitDataset::render(i, 40 + i), urgent),
             0.0});
    settleTimed(futs, untimed);

    ScenarioResult r;
    r.offered_ips = row.load * capacity_ips;
    obs::ScopedSpan wall_span(obs::SpanName::Scenario, 0, 0, n);
    poissonArrivals(n, r.offered_ips, 0xA221'7E57,
                    [&](size_t i, double at_ms) {
                        serve::RequestOptions opts = row.opts;
                        if (row.high_every > 0 && i % row.high_every == 0)
                            opts.accuracy = serve::AccuracyClass::High;
                        futs.push_back(
                            {server.submit(nn::DigitDataset::render(
                                               i % 10, 100 + i),
                                           opts),
                             at_ms});
                    });
    Tally timed;
    settleTimed(futs, timed);
    const double wall_ms = spanWallMs(wall_span);
    r.achieved_ips = perSecond(timed.ok, wall_ms);
    r.goodput_ips = perSecond(timed.ok_met, wall_ms);

    if (row.burst > 0) {
        // A stall fires only with a non-zero duration; the stall
        // function ignores it and waits on the latch instead.
        faults.arm(serve::FaultPoint::WorkerPop, 1,
                   std::chrono::microseconds(1));
        serve::RequestOptions occupy;
        occupy.accuracy = serve::AccuracyClass::High;
        futs.push_back(
            {server.submit(nn::DigitDataset::render(0, 199), occupy),
             0.0});
        stalled.wait();
        serve::RequestOptions tight = row.opts;
        tight.deadline = std::chrono::milliseconds(2);
        for (size_t i = 0; i < row.burst; ++i)
            futs.push_back({server.submit(nn::DigitDataset::render(
                                              i % 10, 200 + i),
                                          tight),
                            0.0});
        release.count_down();
        settleTimed(futs, untimed);
    }
    server.drain();
    r.metrics = server.metricsSnapshot();
    return r;
}

void
printScenario(const char *name, const ScenarioResult &r)
{
    const auto &m = r.metrics;
    std::printf("  %-18s %7.1f ips (offered %6.1f)", name, r.achieved_ips,
                r.offered_ips);
    std::printf("  p50 %7.1f  p95 %7.1f  p99 %7.1f ms",
                m.total_latency.p50_ms, m.total_latency.p95_ms,
                m.total_latency.p99_ms);
    std::printf("  batch %4.1f  bits %6.1f  exits %4.0f%%\n",
                m.avg_batch_size, m.avg_effective_bits,
                100.0 * m.early_exit_rate);
    std::printf("  %-18s %7.1f goodput ips  rejected %llu  shed %llu  "
                "cancelled %llu  expedited %llu  depth %llu\n",
                "", r.goodput_ips,
                static_cast<unsigned long long>(m.rejected),
                static_cast<unsigned long long>(m.shed),
                static_cast<unsigned long long>(m.cancelled),
                static_cast<unsigned long long>(
                    m.close_reasons[static_cast<size_t>(
                        serve::CloseReason::Expedited)]),
                static_cast<unsigned long long>(m.max_queue_depth));
}

// --------------------------------------------------------- model fleet

/** One model of the serving fleet: its spec, a directly-built
 *  reference engine (calibration + bit-exactness sentinel), the
 *  per-model offered load, and the measured results. */
struct FleetModel
{
    std::string id;
    nn::TopologySpec spec;
    nn::Network net;
    std::unique_ptr<core::ScNetwork> ref;
    double fused_ms = 0;
    double offered_ips = 0;
    serve::RequestOptions opts;

    size_t n_events = 0;      //!< requests per phase (rate * horizon)
    double solo_goodput = 0;  //!< goodput ips, model alone
    double mixed_goodput = 0; //!< goodput ips, all models + poisoning
    serve::ModelSnapshot snap; //!< registry state after the run
};

struct FleetOutcome
{
    std::vector<FleetModel> models; //!< [0] is the poisoned model
    size_t n_per_model = 0;
    double offered_frac = 0;
    double mixed_wall_ms = 0;
    double healthy_ratio = 0; //!< min mixed/solo goodput, healthy only
    bool poisoned_quarantined = false;
    bool poisoned_recovered = false;
    size_t sentinel_checked = 0;
    size_t sentinel_mismatches = 0;
    size_t flight_dumps = 0; //!< postmortem dumps written by the run
};

/**
 * Fleet isolation scenario: three models behind one ModelRegistry
 * (per-model servers built from the hardened template, one shared
 * compute pool). Each model is measured solo at @p offered_frac of its
 * own calibrated per-request capacity, then all three run together at
 * the same per-model rates while the middle half of the lenet5 traffic
 * is poisoned with injected execution faults. The breaker must
 * quarantine lenet5 (fast rejects, no compute stolen from the healthy
 * models) and recover it through half-open probes once the faults
 * stop; every 4th mlp request doubles as a bit-exactness sentinel
 * checked against the directly-built reference engine.
 */
FleetOutcome
runFleet(const ServingSetup &setup, size_t len, size_t n_fleet)
{
    FleetOutcome out;
    out.n_per_model = n_fleet;
    // Per-model offered load as a fraction of its own calibrated
    // capacity. Three tenants share one pool, so the aggregate is 3x
    // this; 0.15 keeps the fleet at ~45% utilization, where multi-
    // tenant queueing costs the healthy models well under the 20%
    // goodput margin the fleet gate allows.
    out.offered_frac = 0.15;

    core::ScNetworkConfig cfg;
    cfg.bitstream_len = len;
    cfg.stream_segment_words = 1; // see main(): progressive checkpoints

    const auto addModel = [&](const char *id,
                              const nn::TopologySpec &spec) {
        FleetModel m;
        m.id = id;
        m.spec = spec;
        m.net = nn::buildTopology(spec, nn::PoolingMode::Max);
        nn::programDecisiveLogits(m.net);
        m.ref = std::make_unique<core::ScNetwork>(m.net, cfg);
        out.models.push_back(std::move(m));
    };
    nn::TopologySpec lenet5;
    lenet5.convs = {{20, 5}, {50, 5}};
    lenet5.fc_hidden = {500};
    addModel("lenet5", lenet5);
    nn::TopologySpec lenetl;
    lenetl.convs = {{20, 5}, {50, 5}, {64, 3}};
    lenetl.fc_hidden = {128};
    addModel("lenet-l", lenetl);
    nn::TopologySpec mlp;
    mlp.fc_hidden = {500};
    addModel("mlp", mlp);
    const size_t kPoisoned = 0; // lenet5
    const size_t kSentinel = 2; // mlp: cheapest reference predict

    serve::FaultInjector faults;
    // Postmortem hook: the breaker trips the poison window forces
    // must each leave a flight-recorder dump next to the bench JSONs
    // (fleet_gate carries the count for bench_check.py).
    obs::FlightRecorder flight;
    serve::RegistryConfig rc;
    rc.server_template = setup.hardened;
    // Shorter batches than the single-model overload scenario: with
    // one shared pool, a closed batch of the slowest model is the
    // head-of-line block every other model's requests wait behind.
    rc.server_template.limits.max_batch = std::min<size_t>(
        4, setup.hardened.limits.max_batch);
    rc.faults = &faults;
    // A small breaker so the poison window (n_fleet/2 failures) trips
    // it and the recovery tail fits in the bench: three consecutive
    // failures reach EWMA 0.936 >= 0.5, probes resume after 60 ms.
    rc.breaker.alpha = 0.6;
    rc.breaker.min_events = 3;
    rc.breaker.trip_threshold = 0.5;
    rc.breaker.backoff = std::chrono::microseconds(60000);
    rc.breaker.probe_quota = 2;
    rc.flight_recorder = &flight;
    serve::ModelRegistry reg(rc);

    for (FleetModel &m : out.models) {
        const serve::InstallResult r = reg.install(
            m.id, serve::makeArtifact(m.id, 1, m.spec,
                                      nn::PoolingMode::Max, cfg, m.net));
        if (!r.ok) {
            std::fprintf(stderr, "fleet install %s failed: %s\n",
                         m.id.c_str(), r.diagnostic.c_str());
            continue;
        }
        // Calibrate this model's own per-request capacity and set its
        // deadline in its own service times.
        m.fused_ms = calibrateMs(*m.ref);
        m.offered_ips = out.offered_frac * 1000.0 / m.fused_ms;
        m.opts = setup.deadlined;
    }
    // Per-model deadline: ten of its own service times plus a head-of-
    // line allowance for the largest co-tenant — with one shared
    // compute pool, a fast model's request can sit behind a whole
    // batch of the slowest model, and that wait is fleet policy, not
    // this model's failure.
    double max_fused_ms = 0.0;
    for (const FleetModel &m : out.models)
        max_fused_ms = std::max(max_fused_ms, m.fused_ms);
    for (FleetModel &m : out.models)
        m.opts.deadline = std::chrono::microseconds(static_cast<long>(
            (m.fused_ms * 10.0 + max_fused_ms * 6.0) * 1000.0));

    // Every phase spans the same horizon: long enough for the slowest
    // model to see n_fleet arrivals at its own rate, with each model's
    // event count scaled to its rate. Solo and mixed goodput are then
    // measured over comparable walls, so their ratio isolates the
    // interference instead of the schedule-length mismatch a shared
    // per-model count would create.
    double horizon_s = 0.0;
    for (const FleetModel &m : out.models)
        horizon_s = std::max(
            horizon_s, static_cast<double>(n_fleet) / m.offered_ips);
    for (FleetModel &m : out.models)
        m.n_events = std::max<size_t>(
            4, static_cast<size_t>(m.offered_ips * horizon_s + 0.5));

    // Solo phases: each model alone at its offered rate.
    for (FleetModel &m : out.models) {
        std::vector<TimedFuture> futs;
        poissonArrivals(m.n_events, m.offered_ips, 0xF1EE7,
                        [&](size_t i, double at_ms) {
                            futs.push_back(
                                {reg.submit(m.id,
                                            nn::DigitDataset::render(
                                                i % 10, 300 + i),
                                            m.opts),
                                 at_ms});
                        });
        Tally solo;
        settleTimed(futs, solo);
        m.solo_goodput = perSecond(solo.ok_met, solo.wall_ms);
        reg.drain();
    }

    // Mixed phase: one merged Poisson schedule across all models.
    struct Event
    {
        double at_s;
        size_t model;
        size_t idx;
    };
    std::vector<Event> events;
    std::mt19937_64 rng(0xF1EE7D);
    for (size_t mi = 0; mi < out.models.size(); ++mi) {
        std::exponential_distribution<double> gap(
            out.models[mi].offered_ips);
        double at = 0.0;
        for (size_t i = 0; i < out.models[mi].n_events; ++i) {
            at += gap(rng);
            events.push_back({at, mi, i});
        }
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  return a.at_s < b.at_s;
              });

    /** What a sentinel's reference predict needs to replay it. */
    struct SentinelKey
    {
        uint64_t seed;
        size_t digit;
        size_t render_seed;
    };
    std::vector<std::vector<TimedFuture>> futs(out.models.size());
    std::vector<TimedFuture> sentinel_futs;
    std::vector<SentinelKey> sentinels;
    size_t poisoned_seen = 0;
    obs::ScopedSpan mixed_span(obs::SpanName::Scenario);
    const SteadyClock::time_point t0 = SteadyClock::now();
    for (const Event &e : events) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<SteadyClock::duration>(
                     std::chrono::duration<double>(e.at_s)));
        const size_t digit = e.idx % 10;
        serve::RequestOptions opts = out.models[e.model].opts;
        const bool is_sentinel =
            e.model == kSentinel && e.idx % 4 == 0;
        if (is_sentinel) {
            // Full-precision with a pinned seed: the answer must be
            // bit-exact with the reference engine regardless of the
            // chaos on the poisoned model.
            opts.accuracy = serve::AccuracyClass::High;
            opts.seed = 7000 + e.idx;
        }
        // Poison the middle half of the lenet5 traffic: one armed
        // ModelExecute shot consumed synchronously by this submit.
        // The disarm afterwards clears the shot the submit did NOT
        // consume when the breaker fast-rejected it, so a stale shot
        // can never leak onto a healthy model's next request.
        const size_t n_poisoned = out.models[kPoisoned].n_events;
        const bool poison = e.model == kPoisoned &&
                            poisoned_seen >= n_poisoned / 4 &&
                            poisoned_seen < 3 * n_poisoned / 4;
        if (e.model == kPoisoned)
            ++poisoned_seen;
        if (poison)
            faults.arm(serve::FaultPoint::ModelExecute, 1);
        TimedFuture tf{reg.submit(out.models[e.model].id,
                                  nn::DigitDataset::render(digit,
                                                           300 + e.idx),
                                  opts),
                       e.at_s * 1000.0};
        if (poison) {
            faults.disarm(serve::FaultPoint::ModelExecute);
            if (reg.state(out.models[kPoisoned].id) ==
                serve::ModelState::Quarantined)
                out.poisoned_quarantined = true;
        }
        if (is_sentinel) {
            sentinel_futs.push_back(std::move(tf));
            sentinels.push_back({7000 + e.idx, digit, 300 + e.idx});
        } else {
            futs[e.model].push_back(std::move(tf));
        }
    }

    // Per-model settle with per-model walls (see Tally::wall_ms); the
    // sentinels count toward the mlp model's tally.
    std::vector<Tally> mixed(out.models.size());
    for (size_t mi = 0; mi < out.models.size(); ++mi)
        settleTimed(futs[mi], mixed[mi]);
    std::vector<std::optional<serve::InferenceResult>> sentinel_answers;
    settleTimed(sentinel_futs, mixed[kSentinel], &sentinel_answers);
    out.mixed_wall_ms = spanWallMs(mixed_span);

    // Bit-exactness check against the reference engine, off the clock.
    const core::PredictOptions sentinel_popts =
        serve::QosPolicy{core::EngineMode::Fused, 0.0, 0}
            .predictOptions();
    for (size_t k = 0; k < sentinels.size(); ++k) {
        if (!sentinel_answers[k].has_value())
            continue;
        const SentinelKey &s = sentinels[k];
        ++out.sentinel_checked;
        core::ForwardInfo info;
        const size_t pred = out.models[kSentinel].ref->predictWith(
            nn::DigitDataset::render(s.digit, s.render_seed), s.seed,
            sentinel_popts, &info);
        if (sentinel_answers[k]->predicted != pred ||
            sentinel_answers[k]->scores != info.scores)
            ++out.sentinel_mismatches;
    }

    // Recovery tail: the faults are gone, so once the breaker backoff
    // elapses its half-open probes succeed and close it again.
    for (int i = 0;
         i < 60 && reg.breakerState(out.models[kPoisoned].id) !=
                       serve::BreakerState::Closed;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        try {
            reg.submit(out.models[kPoisoned].id,
                       nn::DigitDataset::render(i % 10, 900 + i),
                       out.models[kPoisoned].opts)
                .get();
        } catch (const serve::ServeError &) {
            // Rejected while still open/probing: keep trying.
        }
    }
    reg.drain();

    for (size_t mi = 0; mi < out.models.size(); ++mi) {
        FleetModel &m = out.models[mi];
        m.mixed_goodput = perSecond(mixed[mi].ok_met, mixed[mi].wall_ms);
        m.snap = reg.modelSnapshot(m.id);
    }
    const FleetModel &poisoned = out.models[kPoisoned];
    out.poisoned_quarantined =
        out.poisoned_quarantined || poisoned.snap.trips >= 1;
    out.poisoned_recovered =
        reg.state(poisoned.id) == serve::ModelState::Serving &&
        poisoned.snap.recoveries >= 1;
    out.healthy_ratio = -1.0;
    for (size_t mi = 0; mi < out.models.size(); ++mi) {
        if (mi == kPoisoned)
            continue;
        const FleetModel &m = out.models[mi];
        const double ratio =
            m.solo_goodput > 0 ? m.mixed_goodput / m.solo_goodput : 0;
        if (out.healthy_ratio < 0 || ratio < out.healthy_ratio)
            out.healthy_ratio = ratio;
    }
    out.flight_dumps = flight.dumpCount();
    return out;
}

void
printFleet(const FleetOutcome &fleet)
{
    std::printf("\nmodel fleet (3 models @ %.2fx own capacity each, %zu "
                "images/model, lenet5 poisoned mid-run):\n",
                fleet.offered_frac, fleet.n_per_model);
    for (const FleetModel &m : fleet.models) {
        std::printf("  %-8s solo %6.1f -> mixed %6.1f goodput ips  "
                    "state %-11s trips %llu recov %llu rejected %llu "
                    "faulted %llu\n",
                    m.id.c_str(), m.solo_goodput, m.mixed_goodput,
                    serve::modelStateName(m.snap.state),
                    static_cast<unsigned long long>(m.snap.trips),
                    static_cast<unsigned long long>(m.snap.recoveries),
                    static_cast<unsigned long long>(
                        m.snap.unavailable_rejected),
                    static_cast<unsigned long long>(m.snap.faulted));
    }
    std::printf("  healthy goodput ratio %.2f  poisoned quarantined "
                "%s, recovered %s  sentinel %zu/%zu bit-exact  "
                "flight dumps %zu\n",
                fleet.healthy_ratio,
                fleet.poisoned_quarantined ? "yes" : "NO",
                fleet.poisoned_recovered ? "yes" : "NO",
                fleet.sentinel_checked - fleet.sentinel_mismatches,
                fleet.sentinel_checked, fleet.flight_dumps);
}

void
writeFleetGate(std::FILE *f, const FleetOutcome &fleet)
{
    std::fprintf(f, "  \"fleet_gate\": {\n");
    std::fprintf(f, "    \"n_per_model\": %zu,\n", fleet.n_per_model);
    std::fprintf(f, "    \"offered_frac\": %.2f,\n",
                 fleet.offered_frac);
    std::fprintf(f, "    \"mixed_wall_ms\": %.1f,\n",
                 fleet.mixed_wall_ms);
    std::fprintf(f, "    \"healthy_goodput_ratio\": %.3f,\n",
                 fleet.healthy_ratio);
    std::fprintf(f, "    \"poisoned_id\": \"%s\",\n",
                 fleet.models[0].id.c_str());
    std::fprintf(f, "    \"poisoned_trips\": %llu,\n",
                 static_cast<unsigned long long>(
                     fleet.models[0].snap.trips));
    std::fprintf(f, "    \"poisoned_quarantined\": %d,\n",
                 fleet.poisoned_quarantined ? 1 : 0);
    std::fprintf(f, "    \"poisoned_recovered\": %d,\n",
                 fleet.poisoned_recovered ? 1 : 0);
    std::fprintf(f, "    \"poisoned_final_state\": \"%s\",\n",
                 serve::modelStateName(fleet.models[0].snap.state));
    std::fprintf(f, "    \"sentinel_checked\": %zu,\n",
                 fleet.sentinel_checked);
    std::fprintf(f, "    \"sentinel_mismatches\": %zu,\n",
                 fleet.sentinel_mismatches);
    std::fprintf(f, "    \"flight_dumps\": %zu\n", fleet.flight_dumps);
    std::fprintf(f, "  },\n");
}

} // namespace

int
main()
{
    bench::banner("serving",
                  "Serving gates: micro-batching vs per-request, "
                  "overload hardening, model-fleet isolation");

    const size_t len = bench::envSize("SCDCNN_SERVE_LEN", 256);
    const size_t n = std::max<size_t>(
        4, bench::envSize("SCDCNN_SERVE_IMAGES", 48));

    nn::Network net = decisiveLenet5();
    core::ScNetworkConfig cfg;
    cfg.bitstream_len = len;
    // One-word segments give Progressive a checkpoint every 64
    // cycles; at short serving lengths the default 4-word granularity
    // would cover the whole stream and never early-exit.
    cfg.stream_segment_words = 1;
    core::ScNetwork sc(net, cfg);

    // Calibrate: full-precision single-image latency sets the offered
    // loads, so "1.5x the per-request capacity" means the same thing
    // on every box.
    const double fused_ms = calibrateMs(sc);
    const double capacity_ips = 1000.0 / fused_ms;
    std::printf("calibration: fused predict %.1f ms  (~%.1f ips "
                "per-request capacity)\n\n",
                fused_ms, capacity_ips);

    // One derived config set feeds every row (see ServingSetup).
    const ServingSetup setup = buildServingSetup(fused_ms, len);
    const size_t cap = setup.hardened.limits.max_queue_per_class;
    const Scenario rows[] = {
        {"per_request@1.5x", setup.per_request, setup.high, 1.5, 0, 0, 0},
        {"microbatch@1.5x", setup.micro, setup.balanced, 1.5, 0, 0, 0},
        {"overload@1.0x", setup.hardened, setup.deadlined, 1.0, 3, 8, 0},
        {"overload@2.5x", setup.hardened, setup.deadlined, 2.5, 3, 8,
         6 * cap},
    };

    // SCDCNN_SERVE_TRACE=<path>: run the burst row with tracing armed
    // and export everything it recorded as a Chrome trace — the CI
    // traced-burst step validates the file with tools/trace_check.py.
    const char *trace_env = std::getenv("SCDCNN_SERVE_TRACE");
    const bool tracing = trace_env != nullptr && *trace_env != '\0';
    obs::TraceRecorder &rec = obs::TraceRecorder::instance();

    std::printf("scenarios (Poisson arrivals, %zu images; overload rows "
                "hardened: admission cap %zu/class, shedding + deadline "
                "cancellation on):\n",
                n, cap);
    std::vector<ScenarioResult> res;
    for (const Scenario &row : rows) {
        const bool traced = tracing && row.burst > 0;
        if (traced) {
            rec.clear(); // no writers yet: the previous server is gone
            rec.arm();
        }
        res.push_back(runScenario(sc, row, capacity_ips, n));
        if (traced) {
            rec.disarm();
            if (obs::writeChromeTrace(trace_env))
                std::printf("  wrote Chrome trace %s\n", trace_env);
            else
                std::fprintf(stderr, "cannot write trace %s\n",
                             trace_env);
        }
        printScenario(row.name, res.back());
    }
    const ScenarioResult &per_request = res[0];
    const ScenarioResult &micro = res[1];
    const ScenarioResult &over_1x = res[2];
    const ScenarioResult &over = res[3];
    std::printf("  goodput at 2.5x offered load: %.1f ips (%.0f%% of "
                "the 1.0x goodput)\n",
                over.goodput_ips,
                100.0 * over.goodput_ips / over_1x.goodput_ips);

    // Model-fleet isolation: three registered models, one poisoned
    // mid-run; the healthy models must hold their solo goodput.
    const size_t n_fleet = std::max<size_t>(
        8, bench::envSize("SCDCNN_SERVE_FLEET_IMAGES", n / 4));
    const FleetOutcome fleet = runFleet(setup, len, n_fleet);
    printFleet(fleet);

    std::printf("\nsame offered load (%.1f ips): per-request %.1f ips "
                "-> micro-batching %.1f ips (%.2fx)\n",
                per_request.offered_ips, per_request.achieved_ips,
                micro.achieved_ips,
                micro.achieved_ips / per_request.achieved_ips);

    const char *json_env = std::getenv("SCDCNN_SERVE_JSON");
    const std::string json_path =
        json_env != nullptr && *json_env != '\0' ? json_env
                                                 : "BENCH_serving.json";
    std::FILE *f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"serving\",\n");
    std::fprintf(f, "  \"network\": \"lenet5-decisive\",\n");
    std::fprintf(f, "  \"bitstream_len\": %zu,\n", len);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"compiler\": \"%s\",\n", __VERSION__);
    std::fprintf(f, "  \"calib_fused_ms\": %.3f,\n", fused_ms);
    const auto &om = over.metrics;
    std::fprintf(f, "  \"overload_gate\": {\n");
    std::fprintf(f, "    \"deadline_ms\": %.2f,\n",
                 setup.overload_deadline_ms);
    std::fprintf(f, "    \"queue_cap_per_class\": %zu,\n", cap);
    std::fprintf(f, "    \"goodput_1x_ips\": %.2f,\n", over_1x.goodput_ips);
    std::fprintf(f, "    \"goodput_2p5x_ips\": %.2f,\n", over.goodput_ips);
    std::fprintf(f, "    \"goodput_ratio\": %.3f,\n",
                 over_1x.goodput_ips > 0
                     ? over.goodput_ips / over_1x.goodput_ips
                     : 0.0);
    std::fprintf(f, "    \"rejected\": %llu,\n",
                 static_cast<unsigned long long>(om.rejected));
    std::fprintf(f, "    \"shed\": %llu,\n",
                 static_cast<unsigned long long>(om.shed));
    std::fprintf(f, "    \"cancelled\": %llu,\n",
                 static_cast<unsigned long long>(om.cancelled));
    std::fprintf(f, "    \"expedited\": %llu,\n",
                 static_cast<unsigned long long>(
                     om.close_reasons[static_cast<size_t>(
                            serve::CloseReason::Expedited)]));
    std::fprintf(f, "    \"max_queue_depth\": %llu,\n",
                 static_cast<unsigned long long>(om.max_queue_depth));
    std::fprintf(f, "    \"overload_p99_ms\": %.2f\n",
                 om.total_latency.p99_ms);
    std::fprintf(f, "  },\n");
    writeFleetGate(f, fleet);
    std::fprintf(f, "  \"gate\": {\n");
    std::fprintf(f, "    \"offered_ips\": %.2f,\n", per_request.offered_ips);
    std::fprintf(f, "    \"per_request_ips\": %.2f,\n",
                 per_request.achieved_ips);
    std::fprintf(f, "    \"microbatch_ips\": %.2f,\n", micro.achieved_ips);
    std::fprintf(f, "    \"microbatch_p99_ms\": %.2f\n",
                 micro.metrics.total_latency.p99_ms);
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
    return 0;
}
