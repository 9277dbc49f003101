/**
 * @file
 * Serving-layer load benchmark: open-loop (Poisson arrivals) and
 * closed-loop load against the InferenceServer, comparing per-request
 * serving (max_batch=1, full-precision High class, no deadlines — the
 * baseline a caller-assembled forwardBatch world gives you) with the
 * dynamic micro-batching scheduler plus deadline-aware progressive
 * precision. Both sides see the same offered load; throughput,
 * p50/p95/p99 latency, batch-size distribution, early-exit rate and
 * effective bits go to BENCH_serving.json (override with
 * SCDCNN_SERVE_JSON) for tools/bench_check.py to gate.
 *
 * A third section measures overload robustness: the hardened config
 * (bounded per-class admission, doomed-request shedding, deadline-
 * armed cancellation) at 1.0x and 2.5x the calibrated per-request
 * capacity. Goodput — answers that met their deadline per second —
 * plus the rejected/shed/expedited counters land in an
 * "overload_gate" block that bench_check.py enforces.
 *
 * The network is the decisive-logit LeNet-5 variant (output layer
 * programmed to +1/-1/0 rows — the confident regime a trained network
 * produces) so Progressive early exit behaves as it does on trained
 * weights; see bench_throughput.cc for the rationale.
 *
 * A fourth section measures model-fleet isolation: three models
 * (lenet5, lenet-l, mlp) behind one ModelRegistry sharing the global
 * compute pool, each first measured solo, then all three under mixed
 * load while the lenet5 model is poisoned mid-run with injected
 * execution faults. Its circuit breaker must quarantine it (fast
 * rejects, no compute) and later recover it through half-open probes,
 * while the healthy models hold their solo goodput — the "fleet_gate"
 * block records the healthy-goodput ratio, the poisoned model's
 * quarantine/recovery trajectory and a bit-exactness sentinel that
 * bench_check.py --fleet enforces.
 *
 * Knobs: SCDCNN_SERVE_LEN (bit-stream length, default 256),
 * SCDCNN_SERVE_IMAGES (requests per scenario, default 48),
 * SCDCNN_SERVE_MAX_BATCH (default 8),
 * SCDCNN_SERVE_CLIENTS (closed-loop clients, default 4),
 * SCDCNN_SERVE_FLEET_IMAGES (fleet requests per model, default
 * max(8, images/4)).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
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

/** Scenario walls are measured with obs::ScopedSpan (which reads its
 *  clock whether or not tracing is armed), so when a traced run is
 *  requested the same interval that produces the printed numbers
 *  appears as a "scenario" span in the exported trace. */
double
spanWallMs(obs::ScopedSpan &span)
{
    return static_cast<double>(span.finish()) * 1e-6;
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

/**
 * Every scenario's server config and request options, derived from one
 * measured fused-predict latency so "1.5x capacity" and "a deadline of
 * six service times" mean the same thing on every box. Shared by the
 * open/closed-loop sections, the overload section and the fleet
 * registry (which uses @p hardened as its per-model server template).
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
buildServingSetup(double fused_ms, size_t len, size_t max_batch)
{
    ServingSetup s;

    // Per-request baseline: every request its own batch, full
    // precision, no deadline — serving without the subsystem's
    // policies.
    s.per_request.limits.max_batch = 1;
    s.per_request.limits.max_queue_delay =
        std::chrono::microseconds(100);
    // The legacy throughput scenarios keep every admitted request:
    // shedding is benchmarked separately, and turning it off here
    // keeps these series comparable with earlier runs.
    s.per_request.limits.shed_doomed = false;
    s.high.accuracy = serve::AccuracyClass::High;

    // Micro-batching + QoS: dynamic batches under (max_batch,
    // max_queue_delay), Balanced progressive precision, a deadline
    // generous at light load but binding under overload — queue
    // pressure degrades precision instead of blowing up latency.
    s.micro.limits.max_batch = max_batch;
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
    s.hardened.limits.max_queue_per_class = 2 * max_batch;
    s.hardened.cancel_on_deadline = true;
    s.deadlined = s.balanced;
    s.deadlined.deadline = std::chrono::microseconds(
        static_cast<long>(fused_ms * 8000.0)); // ~8 service times
    s.overload_deadline_ms = fused_ms * 8.0;
    return s;
}

struct ScenarioResult
{
    std::string name;
    size_t max_batch = 1;
    size_t n_images = 0;
    double offered_ips = 0;  //!< 0 for closed-loop
    double achieved_ips = 0;
    double goodput_ips = 0;  //!< completed-within-deadline per second
    double wall_ms = 0;
    uint64_t client_ok = 0;     //!< futures that held a result
    uint64_t client_failed = 0; //!< futures that held a ServeError
    serve::MetricsSnapshot metrics;
};

/** Resolve a batch of futures, counting results, deadline-met
 *  results, and typed failures (rejected/shed/cancelled). */
void
settle(std::vector<std::future<serve::InferenceResult>> &futs,
       uint64_t &ok, uint64_t &ok_met, uint64_t &failed)
{
    for (auto &f : futs) {
        try {
            const serve::InferenceResult r = f.get();
            ++ok;
            if (r.deadline_met)
                ++ok_met;
        } catch (const serve::ServeError &) {
            ++failed;
        }
    }
    futs.clear();
}

/** Poisson-arrival open-loop run: submit n images at @p offered_ips,
 *  then wait for every answer. */
ScenarioResult
runOpenLoop(const core::ScNetwork &net, const char *name,
            serve::ServerConfig scfg, serve::RequestOptions ropts,
            size_t n, double offered_ips)
{
    serve::InferenceServer server(net, scfg);
    std::mt19937_64 rng(0xA221'7E57);
    std::exponential_distribution<double> gap(offered_ips);

    std::vector<std::future<serve::InferenceResult>> futs;
    futs.reserve(n);
    obs::ScopedSpan wall_span(obs::SpanName::Scenario, 0, 0, n);
    const SteadyClock::time_point t0 = SteadyClock::now();
    double arrival_s = 0.0;
    for (size_t i = 0; i < n; ++i) {
        arrival_s += gap(rng);
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<SteadyClock::duration>(
                     std::chrono::duration<double>(arrival_s)));
        futs.push_back(
            server.submit(nn::DigitDataset::render(i % 10, 100 + i),
                          ropts));
    }
    uint64_t ok = 0, ok_met = 0, failed = 0;
    settle(futs, ok, ok_met, failed);
    const double wall = spanWallMs(wall_span);
    server.drain();

    ScenarioResult r;
    r.name = name;
    r.max_batch = scfg.limits.max_batch;
    r.n_images = n;
    r.offered_ips = offered_ips;
    r.achieved_ips = static_cast<double>(n) / (wall / 1000.0);
    r.goodput_ips = static_cast<double>(ok_met) / (wall / 1000.0);
    r.wall_ms = wall;
    r.client_ok = ok;
    r.client_failed = failed;
    r.metrics = server.metricsSnapshot();
    return r;
}

/**
 * Overload scenario on one overload-hardened server, three phases:
 *
 *   expedite — a few requests whose deadline equals max_queue_delay
 *              are urgent on arrival, forcing Expedited closes on a
 *              cold estimate (exercises the close path every time);
 *   poisson  — open loop at @p offered_ips; goodput (results that
 *              met their deadline per second of this phase's wall) is
 *              the scenario's headline number;
 *   burst    — @p burst back-to-back tight-deadline submits with no
 *              pacing: the class queue cap rejects the overflow
 *              deterministically and the admitted remainder becomes
 *              doomed behind the backlog and is shed (or cancelled
 *              in flight once its armed deadline trips).
 *
 * The returned metrics snapshot covers all phases; goodput covers
 * the poisson phase only.
 */
ScenarioResult
runOverload(const core::ScNetwork &net, const char *name,
            serve::ServerConfig scfg, serve::RequestOptions ropts,
            size_t n, double offered_ips, size_t burst)
{
    serve::InferenceServer server(net, scfg);
    uint64_t ok = 0, ok_met = 0, failed = 0;
    std::vector<std::future<serve::InferenceResult>> futs;

    // Phase 1: expedited warm-up (see function comment).
    serve::RequestOptions urgent = ropts;
    urgent.deadline = scfg.limits.max_queue_delay;
    for (size_t i = 0; i < 3; ++i)
        futs.push_back(
            server.submit(nn::DigitDataset::render(i, 40 + i), urgent));
    settle(futs, ok, ok_met, failed);

    // Phase 2: Poisson arrivals at the offered rate. Every 8th
    // request keeps the High class: mixed QoS is the normal serving
    // regime, and the full-precision sliver walks every stream
    // segment — so traced runs show the engine's per-segment phase
    // spans at every depth, not only the first Progressive
    // checkpoint.
    std::mt19937_64 rng(0xA221'7E57);
    std::exponential_distribution<double> gap(offered_ips);
    obs::ScopedSpan wall_span(obs::SpanName::Scenario, 0, 0, n);
    const SteadyClock::time_point t0 = SteadyClock::now();
    double arrival_s = 0.0;
    for (size_t i = 0; i < n; ++i) {
        arrival_s += gap(rng);
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<SteadyClock::duration>(
                     std::chrono::duration<double>(arrival_s)));
        serve::RequestOptions opts = ropts;
        if (i % 8 == 0)
            opts.accuracy = serve::AccuracyClass::High;
        futs.push_back(
            server.submit(nn::DigitDataset::render(i % 10, 100 + i),
                          opts));
    }
    uint64_t p_ok = 0, p_ok_met = 0, p_failed = 0;
    settle(futs, p_ok, p_ok_met, p_failed);
    const double wall = spanWallMs(wall_span);

    // Phase 3: queue-full burst.
    serve::RequestOptions tight = ropts;
    tight.deadline = std::chrono::milliseconds(2);
    for (size_t i = 0; i < burst; ++i)
        futs.push_back(
            server.submit(nn::DigitDataset::render(i % 10, 200 + i),
                          tight));
    settle(futs, ok, ok_met, failed);
    server.drain();

    ScenarioResult r;
    r.name = name;
    r.max_batch = scfg.limits.max_batch;
    r.n_images = n;
    r.offered_ips = offered_ips;
    r.achieved_ips = static_cast<double>(p_ok) / (wall / 1000.0);
    r.goodput_ips = static_cast<double>(p_ok_met) / (wall / 1000.0);
    r.wall_ms = wall;
    r.client_ok = ok + p_ok;
    r.client_failed = failed + p_failed;
    r.metrics = server.metricsSnapshot();
    return r;
}

/** Closed-loop run: @p clients submit-wait-repeat until n answers. */
ScenarioResult
runClosedLoop(const core::ScNetwork &net, const char *name,
              serve::ServerConfig scfg, serve::RequestOptions ropts,
              size_t n, size_t clients)
{
    serve::InferenceServer server(net, scfg);
    std::atomic<size_t> next{0};
    obs::ScopedSpan wall_span(obs::SpanName::Scenario, 0, 0, n);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            for (;;) {
                const size_t i = next.fetch_add(1);
                if (i >= n)
                    return;
                server
                    .submit(nn::DigitDataset::render(i % 10, 100 + i),
                            ropts)
                    .get();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const double wall = spanWallMs(wall_span);

    ScenarioResult r;
    r.name = name;
    r.max_batch = scfg.limits.max_batch;
    r.n_images = n;
    r.achieved_ips = static_cast<double>(n) / (wall / 1000.0);
    r.wall_ms = wall;
    r.metrics = server.metricsSnapshot();
    return r;
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
    uint64_t mixed_ok = 0;
    uint64_t mixed_failed = 0;
    serve::ModelSnapshot snap; //!< registry state after the run
};

/** A pending fleet request together with its scheduled arrival
 *  offset, so the phase wall can be reconstructed per model. */
struct TimedFuture
{
    std::future<serve::InferenceResult> fut;
    double at_ms; //!< scheduled arrival, relative to the phase start
};

/**
 * Resolve a batch of timed futures. Returns the model's effective
 * wall: the latest completion instant (arrival offset + measured
 * total latency) across its answered requests. Measuring the wall
 * from the requests themselves keeps solo and mixed phases
 * comparable — in the mixed phase, wall-clock "after the merged loop"
 * would charge every model for the longest co-tenant schedule.
 */
double
settleTimed(std::vector<TimedFuture> &futs, uint64_t &ok,
            uint64_t &ok_met, uint64_t &failed)
{
    double wall_ms = 0.0;
    for (TimedFuture &tf : futs) {
        try {
            const serve::InferenceResult r = tf.fut.get();
            ++ok;
            if (r.deadline_met)
                ++ok_met;
            wall_ms = std::max(wall_ms, tf.at_ms + r.total_ms);
        } catch (const serve::ServeError &) {
            ++failed;
        }
    }
    futs.clear();
    return wall_ms;
}

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

    const nn::Tensor calib_img = nn::DigitDataset::render(3, 7);
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
        m.ref->predict(calib_img, 1); // warm-up
        obs::ScopedSpan calib(obs::SpanName::Scenario);
        for (int i = 0; i < 2; ++i)
            m.ref->predict(calib_img, 2 + i);
        m.fused_ms = spanWallMs(calib) / 2.0;
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
        std::mt19937_64 rng(0xF1EE7);
        std::exponential_distribution<double> gap(m.offered_ips);
        std::vector<TimedFuture> futs;
        futs.reserve(m.n_events);
        const SteadyClock::time_point t0 = SteadyClock::now();
        double arrival_s = 0.0;
        for (size_t i = 0; i < m.n_events; ++i) {
            arrival_s += gap(rng);
            std::this_thread::sleep_until(
                t0 +
                std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(arrival_s)));
            futs.push_back(
                {reg.submit(m.id,
                            nn::DigitDataset::render(i % 10, 300 + i),
                            m.opts),
                 arrival_s * 1000.0});
        }
        uint64_t ok = 0, ok_met = 0, failed = 0;
        const double wall = settleTimed(futs, ok, ok_met, failed);
        m.solo_goodput = wall > 0 ? static_cast<double>(ok_met) /
                                        (wall / 1000.0)
                                  : 0.0;
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

    struct Sentinel
    {
        TimedFuture tf;
        uint64_t seed;
        size_t digit;
        size_t render_seed;
    };
    std::vector<std::vector<TimedFuture>> futs(out.models.size());
    std::vector<Sentinel> sentinels;
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
        std::future<serve::InferenceResult> fut = reg.submit(
            out.models[e.model].id,
            nn::DigitDataset::render(digit, 300 + e.idx), opts);
        if (poison) {
            faults.disarm(serve::FaultPoint::ModelExecute);
            if (reg.state(out.models[kPoisoned].id) ==
                serve::ModelState::Quarantined)
                out.poisoned_quarantined = true;
        }
        if (is_sentinel)
            sentinels.push_back({{std::move(fut), e.at_s * 1000.0},
                                 7000 + e.idx,
                                 digit,
                                 300 + e.idx});
        else
            futs[e.model].push_back(
                {std::move(fut), e.at_s * 1000.0});
    }

    // Per-model settle with per-model walls (see settleTimed).
    std::vector<uint64_t> ok(out.models.size()),
        ok_met(out.models.size()), failed(out.models.size());
    std::vector<double> wall(out.models.size());
    for (size_t mi = 0; mi < out.models.size(); ++mi)
        wall[mi] = settleTimed(futs[mi], ok[mi], ok_met[mi],
                               failed[mi]);
    std::vector<serve::InferenceResult> sentinel_results;
    std::vector<size_t> sentinel_idx;
    for (size_t si = 0; si < sentinels.size(); ++si) {
        try {
            serve::InferenceResult r = sentinels[si].tf.fut.get();
            ++ok[kSentinel];
            if (r.deadline_met)
                ++ok_met[kSentinel];
            wall[kSentinel] =
                std::max(wall[kSentinel],
                         sentinels[si].tf.at_ms + r.total_ms);
            sentinel_results.push_back(std::move(r));
            sentinel_idx.push_back(si);
        } catch (const serve::ServeError &) {
            ++failed[kSentinel];
        }
    }
    out.mixed_wall_ms = spanWallMs(mixed_span);

    // Bit-exactness check against the reference engine, off the clock.
    const core::PredictOptions sentinel_popts =
        serve::QosPolicy{core::EngineMode::Fused, 0.0, 0}
            .predictOptions();
    for (size_t k = 0; k < sentinel_results.size(); ++k) {
        const Sentinel &s = sentinels[sentinel_idx[k]];
        ++out.sentinel_checked;
        core::ForwardInfo info;
        const size_t pred = out.models[kSentinel].ref->predictWith(
            nn::DigitDataset::render(s.digit, s.render_seed), s.seed,
            sentinel_popts, &info);
        if (sentinel_results[k].predicted != pred ||
            sentinel_results[k].scores != info.scores)
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
        m.mixed_ok = ok[mi];
        m.mixed_failed = failed[mi];
        m.mixed_goodput =
            wall[mi] > 0 ? static_cast<double>(ok_met[mi]) /
                               (wall[mi] / 1000.0)
                         : 0.0;
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
writeFleetJson(std::FILE *f, const FleetOutcome &fleet)
{
    std::fprintf(f, "  \"fleet\": [\n");
    for (size_t i = 0; i < fleet.models.size(); ++i) {
        const FleetModel &m = fleet.models[i];
        std::fprintf(f, "    {\n");
        std::fprintf(f, "      \"id\": \"%s\",\n", m.id.c_str());
        std::fprintf(f, "      \"fused_ms\": %.3f,\n", m.fused_ms);
        std::fprintf(f, "      \"offered_ips\": %.2f,\n",
                     m.offered_ips);
        std::fprintf(f, "      \"events\": %zu,\n", m.n_events);
        std::fprintf(f, "      \"solo_goodput_ips\": %.2f,\n",
                     m.solo_goodput);
        std::fprintf(f, "      \"mixed_goodput_ips\": %.2f,\n",
                     m.mixed_goodput);
        std::fprintf(f, "      \"mixed_ok\": %llu,\n",
                     static_cast<unsigned long long>(m.mixed_ok));
        std::fprintf(f, "      \"mixed_failed\": %llu,\n",
                     static_cast<unsigned long long>(m.mixed_failed));
        std::fprintf(f, "      \"registry\": %s\n",
                     m.snap.toJson().c_str());
        std::fprintf(f, "    }%s\n",
                     i + 1 == fleet.models.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n");
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

void
printScenario(const ScenarioResult &r)
{
    const auto &m = r.metrics;
    std::printf("  %-22s %7.1f ips", r.name.c_str(), r.achieved_ips);
    if (r.offered_ips > 0)
        std::printf(" (offered %6.1f)", r.offered_ips);
    else
        std::printf("                 ");
    std::printf("  p50 %7.1f  p95 %7.1f  p99 %7.1f ms",
                m.total_latency.p50_ms, m.total_latency.p95_ms,
                m.total_latency.p99_ms);
    std::printf("  batch %4.1f  bits %6.1f  exits %4.0f%%\n",
                m.avg_batch_size, m.avg_effective_bits,
                100.0 * m.early_exit_rate);
    if (r.goodput_ips > 0 || r.client_failed > 0)
        std::printf("  %-22s %7.1f goodput ips  rejected %llu  shed "
                    "%llu  cancelled %llu  expedited %llu  depth %llu\n",
                    "", r.goodput_ips,
                    static_cast<unsigned long long>(m.rejected),
                    static_cast<unsigned long long>(m.shed),
                    static_cast<unsigned long long>(m.cancelled),
                    static_cast<unsigned long long>(
                        m.close_reasons[static_cast<size_t>(
                            serve::CloseReason::Expedited)]),
                    static_cast<unsigned long long>(m.max_queue_depth));
}

void
writeScenarioJson(std::FILE *f, const ScenarioResult &r, bool last)
{
    const auto &m = r.metrics;
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"max_batch\": %zu,\n", r.max_batch);
    std::fprintf(f, "      \"images\": %zu,\n", r.n_images);
    if (r.offered_ips > 0)
        std::fprintf(f, "      \"offered_ips\": %.2f,\n", r.offered_ips);
    std::fprintf(f, "      \"achieved_ips\": %.2f,\n", r.achieved_ips);
    if (r.goodput_ips > 0 || r.client_failed > 0) {
        std::fprintf(f, "      \"goodput_ips\": %.2f,\n", r.goodput_ips);
        std::fprintf(f, "      \"client_ok\": %llu,\n",
                     static_cast<unsigned long long>(r.client_ok));
        std::fprintf(f, "      \"client_failed\": %llu,\n",
                     static_cast<unsigned long long>(r.client_failed));
    }
    std::fprintf(f, "      \"wall_ms\": %.1f,\n", r.wall_ms);
    std::fprintf(f, "      \"p50_ms\": %.2f,\n", m.total_latency.p50_ms);
    std::fprintf(f, "      \"p95_ms\": %.2f,\n", m.total_latency.p95_ms);
    std::fprintf(f, "      \"p99_ms\": %.2f,\n", m.total_latency.p99_ms);
    std::fprintf(f, "      \"metrics\": %s\n", m.toJson().c_str());
    std::fprintf(f, "    }%s\n", last ? "" : ",");
}

} // namespace

int
main()
{
    bench::banner("serving",
                  "Async inference serving: dynamic micro-batching + "
                  "deadline-aware progressive precision vs per-request "
                  "serving");

    const size_t len = bench::envSize("SCDCNN_SERVE_LEN", 256);
    const size_t n = std::max<size_t>(
        4, bench::envSize("SCDCNN_SERVE_IMAGES", 48));
    const size_t max_batch =
        std::max<size_t>(2, bench::envSize("SCDCNN_SERVE_MAX_BATCH", 8));
    const size_t clients =
        std::max<size_t>(1, bench::envSize("SCDCNN_SERVE_CLIENTS", 4));

    nn::Network net = decisiveLenet5();
    core::ScNetworkConfig cfg;
    cfg.bitstream_len = len;
    // One-word segments give Progressive a checkpoint every 64
    // cycles; at short serving lengths the default 4-word granularity
    // would cover the whole stream and never early-exit.
    cfg.stream_segment_words = 1;
    core::ScNetwork sc(net, cfg);
    const nn::Tensor calib_img = nn::DigitDataset::render(3, 7);

    // Calibrate: full-precision single-image latency sets the offered
    // loads, so "1.5x the per-request capacity" means the same thing
    // on every box.
    sc.predict(calib_img, 1); // warm-up
    obs::ScopedSpan calib_span(obs::SpanName::Scenario);
    for (int r = 0; r < 3; ++r)
        sc.predict(calib_img, 2 + r);
    const double fused_ms = spanWallMs(calib_span) / 3.0;
    const double capacity_ips = 1000.0 / fused_ms;
    std::printf("calibration: fused predict %.1f ms  (~%.1f ips "
                "per-request capacity)\n\n",
                fused_ms, capacity_ips);

    // One derived config set feeds every section (see ServingSetup).
    const ServingSetup setup = buildServingSetup(fused_ms, len, max_batch);
    const serve::ServerConfig &per_request = setup.per_request;
    const serve::ServerConfig &micro = setup.micro;
    const serve::RequestOptions &high = setup.high;
    const serve::RequestOptions &balanced = setup.balanced;

    const double offered = 1.5 * capacity_ips;
    const double light = 0.6 * capacity_ips;

    std::printf("open loop (Poisson arrivals, %zu images):\n", n);
    std::vector<ScenarioResult> open;
    open.push_back(runOpenLoop(sc, "per_request@1.5x", per_request,
                               high, n, offered));
    printScenario(open.back());
    open.push_back(
        runOpenLoop(sc, "microbatch@1.5x", micro, balanced, n, offered));
    printScenario(open.back());
    open.push_back(runOpenLoop(sc, "per_request@0.6x", per_request,
                               high, n, light));
    printScenario(open.back());
    open.push_back(
        runOpenLoop(sc, "microbatch@0.6x", micro, balanced, n, light));
    printScenario(open.back());

    std::printf("\nclosed loop (%zu clients, %zu images):\n", clients,
                n);
    std::vector<ScenarioResult> closed;
    closed.push_back(runClosedLoop(sc, "per_request", per_request, high,
                                   n, clients));
    printScenario(closed.back());
    closed.push_back(
        runClosedLoop(sc, "microbatch", micro, balanced, n, clients));
    printScenario(closed.back());

    // Overload hardening: the same micro-batching server with the
    // full robustness config — bounded per-class admission, doomed-
    // request shedding, and deadline-armed cancellation — measured at
    // nominal load and at 2.5x capacity. The headline is goodput
    // (answers that met their deadline per second): admission control
    // and shedding spend the scarce compute on requests that can
    // still make it, so goodput should hold up under overload instead
    // of collapsing with the queue.
    const serve::ServerConfig &hardened = setup.hardened;
    const serve::RequestOptions &deadlined = setup.deadlined;
    const double overload_deadline_ms = setup.overload_deadline_ms;

    std::printf("\noverload (hardened: admission cap %zu/class, "
                "shedding + deadline cancellation on):\n",
                hardened.limits.max_queue_per_class);
    std::vector<ScenarioResult> over;
    over.push_back(runOverload(sc, "overload@1.0x", hardened, deadlined,
                               n, 1.0 * capacity_ips, /*burst=*/0));
    printScenario(over.back());
    // SCDCNN_SERVE_TRACE=<path>: run the 2.5x overload scenario with
    // tracing armed and export everything it recorded as a Chrome
    // trace — the CI traced-burst step validates the file with
    // tools/trace_check.py.
    const char *trace_env = std::getenv("SCDCNN_SERVE_TRACE");
    const bool tracing = trace_env != nullptr && *trace_env != '\0';
    obs::TraceRecorder &rec = obs::TraceRecorder::instance();
    if (tracing) {
        rec.clear(); // no writers yet: the previous server is gone
        rec.arm();
    }
    over.push_back(runOverload(sc, "overload@2.5x", hardened, deadlined,
                               n, 2.5 * capacity_ips,
                               /*burst=*/6 * hardened.limits
                                                 .max_queue_per_class));
    if (tracing) {
        rec.disarm();
        if (obs::writeChromeTrace(trace_env))
            std::printf("  wrote Chrome trace %s\n", trace_env);
        else
            std::fprintf(stderr, "cannot write trace %s\n", trace_env);
    }
    printScenario(over.back());
    const double goodput_1x = over[0].goodput_ips;
    const double goodput_over = over[1].goodput_ips;
    std::printf("  goodput at 2.5x offered load: %.1f ips (%.0f%% of "
                "the 1.0x goodput)\n",
                goodput_over, 100.0 * goodput_over / goodput_1x);

    // Model-fleet isolation: three registered models, one poisoned
    // mid-run; the healthy models must hold their solo goodput.
    const size_t n_fleet = std::max<size_t>(
        8, bench::envSize("SCDCNN_SERVE_FLEET_IMAGES", n / 4));
    std::printf("\nmodel fleet (3 models @ 0.25x own capacity each, "
                "%zu images/model, lenet5 poisoned mid-run):\n",
                n_fleet);
    const FleetOutcome fleet = runFleet(setup, len, n_fleet);
    printFleet(fleet);

    const double gate_per_request = open[0].achieved_ips;
    const double gate_micro = open[1].achieved_ips;
    std::printf("\nsame offered load (%.1f ips): per-request %.1f ips "
                "-> micro-batching %.1f ips (%.2fx)\n",
                offered, gate_per_request, gate_micro,
                gate_micro / gate_per_request);

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
    std::fprintf(f, "  \"open_loop\": [\n");
    for (size_t i = 0; i < open.size(); ++i)
        writeScenarioJson(f, open[i], i + 1 == open.size());
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"closed_loop\": [\n");
    for (size_t i = 0; i < closed.size(); ++i)
        writeScenarioJson(f, closed[i], i + 1 == closed.size());
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"overload\": [\n");
    for (size_t i = 0; i < over.size(); ++i)
        writeScenarioJson(f, over[i], i + 1 == over.size());
    std::fprintf(f, "  ],\n");
    const auto &om = over[1].metrics;
    std::fprintf(f, "  \"overload_gate\": {\n");
    std::fprintf(f, "    \"deadline_ms\": %.2f,\n", overload_deadline_ms);
    std::fprintf(f, "    \"queue_cap_per_class\": %zu,\n",
                 hardened.limits.max_queue_per_class);
    std::fprintf(f, "    \"goodput_1x_ips\": %.2f,\n", goodput_1x);
    std::fprintf(f, "    \"goodput_2p5x_ips\": %.2f,\n", goodput_over);
    std::fprintf(f, "    \"goodput_ratio\": %.3f,\n",
                 goodput_1x > 0 ? goodput_over / goodput_1x : 0.0);
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
    writeFleetJson(f, fleet);
    std::fprintf(f, "  \"gate\": {\n");
    std::fprintf(f, "    \"offered_ips\": %.2f,\n", offered);
    std::fprintf(f, "    \"per_request_ips\": %.2f,\n",
                 gate_per_request);
    std::fprintf(f, "    \"microbatch_ips\": %.2f,\n", gate_micro);
    std::fprintf(f, "    \"microbatch_p99_ms\": %.2f\n",
                 open[1].metrics.total_latency.p99_ms);
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
    return 0;
}
