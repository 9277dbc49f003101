/**
 * @file
 * Model-fleet registry tests: artifact round-trip and bit-flip fuzz
 * (every corruption rejected with a typed diagnostic, never a crash
 * or a silent serve), circuit-breaker trip / half-open / recovery on
 * a ManualClock, atomic hot-swap (in-flight requests bit-exact across
 * a swap of a different model), per-model fast-fail error codes, and
 * concurrent load/route/swap/retire designed to run under TSan.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sc_network.h"
#include "nn/network.h"
#include "nn/topology.h"
#include "serve/artifact.h"
#include "serve/model_registry.h"

namespace scdcnn {
namespace {

using namespace std::chrono_literals;
using serve::BreakerState;
using serve::CircuitBreaker;
using serve::FaultInjector;
using serve::FaultPoint;
using serve::ManualClock;
using serve::ModelArtifact;
using serve::ModelRegistry;
using serve::ModelState;
using serve::RegistryConfig;
using serve::ServeError;
using serve::ServeErrorCode;

/** Tiny 12x12 topology so engine construction is milliseconds. */
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

ModelArtifact
miniArtifact(const std::string &name, uint32_t version, uint64_t seed)
{
    const nn::TopologySpec spec = miniSpec(seed);
    const core::ScNetworkConfig cfg = miniConfig();
    nn::Network net = nn::buildTopology(spec, nn::PoolingMode::Max);
    return serve::makeArtifact(name, version, spec,
                               nn::PoolingMode::Max, cfg, net);
}

nn::Tensor
image(uint64_t seed, size_t h = 12, size_t w = 12)
{
    nn::Tensor t(1, h, w);
    uint64_t x = seed * 6364136223846793005ull + 1442695040888963407ull;
    for (size_t i = 0; i < t.size(); ++i) {
        x ^= x >> 33;
        x *= 0xFF51AFD7ED558CCDull;
        t[i] = static_cast<float>((x >> 40) & 0xFF) / 255.0f;
    }
    return t;
}

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "scdcnn_artifact_" +
           tag + ".bin";
}

serve::ServerConfig
fastTemplate()
{
    serve::ServerConfig scfg;
    scfg.limits.max_batch = 1; // close Full immediately: no clock dep
    scfg.limits.max_queue_delay = 100us;
    return scfg;
}

ServeErrorCode
codeOf(std::future<serve::InferenceResult> fut)
{
    try {
        fut.get();
    } catch (const ServeError &e) {
        return e.code();
    }
    ADD_FAILURE() << "future resolved without a ServeError";
    return ServeErrorCode::ShutDown;
}

// ------------------------------------------------ artifact round trip

TEST(Artifact, RoundTripsEveryField)
{
    const std::string path = tempPath("roundtrip");
    const ModelArtifact a = miniArtifact("mini-a", 7, 5);
    ASSERT_TRUE(serve::saveArtifact(a, path));

    ModelArtifact b;
    const nn::LoadResult r = serve::loadArtifact(path, &b);
    ASSERT_TRUE(r) << r.message();
    EXPECT_EQ(b.name, "mini-a");
    EXPECT_EQ(b.version, 7u);
    EXPECT_EQ(b.spec.in_h, a.spec.in_h);
    EXPECT_EQ(b.spec.convs.size(), a.spec.convs.size());
    EXPECT_EQ(b.spec.fc_hidden, a.spec.fc_hidden);
    EXPECT_EQ(b.spec.n_classes, a.spec.n_classes);
    EXPECT_EQ(b.spec.seed, a.spec.seed);
    EXPECT_EQ(b.pooling, a.pooling);
    EXPECT_TRUE(b.config == a.config); // field-wise operator==
    ASSERT_EQ(b.tensors.size(), a.tensors.size());
    for (size_t i = 0; i < a.tensors.size(); ++i)
        EXPECT_EQ(b.tensors[i], a.tensors[i]) << "tensor " << i;

    // The instantiated network must compute exactly what the source
    // network computes.
    nn::Network src =
        nn::buildTopology(a.spec, a.pooling); // same seed => same net
    nn::Network dst;
    ASSERT_TRUE(serve::instantiate(b, &dst));
    const nn::Tensor img = image(3);
    nn::Tensor out_src = src.forward(img);
    nn::Tensor out_dst = dst.forward(img);
    ASSERT_EQ(out_src.size(), out_dst.size());
    for (size_t i = 0; i < out_src.size(); ++i)
        EXPECT_EQ(out_src[i], out_dst[i]);
    std::remove(path.c_str());
}

TEST(Artifact, OlderFormatVersionIsRejectedAsBadVersion)
{
    // Format 2 carried a k-policy byte that format 3 dropped; a format
    // 2 file must meet the typed version rejection, not a misparse.
    const std::string path = tempPath("oldformat");
    ASSERT_TRUE(serve::saveArtifact(miniArtifact("old", 1, 4), path));

    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const uint32_t old_format = 2;
    ASSERT_EQ(std::fseek(f, sizeof(uint32_t), SEEK_SET), 0); // past magic
    ASSERT_EQ(std::fwrite(&old_format, sizeof old_format, 1, f), 1u);
    std::fclose(f);

    ModelArtifact out;
    const nn::LoadResult r = serve::loadArtifact(path, &out);
    EXPECT_EQ(r.code, nn::LoadResult::Code::BadVersion) << r.message();
    EXPECT_EQ(r.expected, 3u);
    EXPECT_EQ(r.actual, 2u);
    std::remove(path.c_str());
}

TEST(Artifact, EveryBitFlipIsRejectedWithADiagnostic)
{
    const std::string path = tempPath("fuzz");
    ASSERT_TRUE(serve::saveArtifact(miniArtifact("fuzz", 1, 9), path));

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<unsigned char> bytes(static_cast<size_t>(size));
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);

    const auto writeBytes = [&](const std::vector<unsigned char> &b) {
        // A fresh file each time: on ext4 a truncating rewrite flushes
        // on close (tens of ms per write), an unlinked-then-new one
        // does not.
        std::remove(path.c_str());
        std::FILE *w = std::fopen(path.c_str(), "wb");
        ASSERT_NE(w, nullptr);
        // fwrite needs a non-null buffer even for zero bytes, and an
        // empty vector's data() may be null (the truncation to 0 bytes).
        if (!b.empty()) {
            ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), w), b.size());
        }
        std::fclose(w);
    };

    // Flip one bit in every byte of the file: the loader must reject
    // each corruption with a typed, non-empty diagnostic — and never
    // crash, never allocate unboundedly, never hand back a model.
    size_t rejected = 0;
    for (size_t i = 0; i < bytes.size(); ++i) {
        std::vector<unsigned char> corrupt = bytes;
        corrupt[i] ^= 1u << (i % 8);
        writeBytes(corrupt);
        ModelArtifact out;
        const nn::LoadResult r = serve::loadArtifact(path, &out);
        ASSERT_FALSE(r.ok()) << "byte " << i << " flip was accepted";
        ASSERT_FALSE(r.message().empty());
        ++rejected;
    }
    EXPECT_EQ(rejected, bytes.size());

    // Truncations at every interesting boundary are rejected too.
    for (size_t cut :
         {size_t(0), size_t(1), size_t(3), size_t(7), size_t(19),
          bytes.size() / 2, bytes.size() - 1}) {
        std::vector<unsigned char> short_file(bytes.begin(),
                                              bytes.begin() + cut);
        writeBytes(short_file);
        ModelArtifact out;
        const nn::LoadResult r = serve::loadArtifact(path, &out);
        ASSERT_FALSE(r.ok()) << "truncation at " << cut << " accepted";
    }
    std::remove(path.c_str());
}

// ------------------------------------------------ breaker unit tests

TEST(CircuitBreaker, TripsHalfOpensAndRecoversOnManualClock)
{
    ManualClock clock;
    serve::BreakerConfig bc;
    bc.alpha = 0.5;
    bc.min_events = 4;
    bc.trip_threshold = 0.5;
    bc.backoff = 1000us;
    bc.probe_quota = 2;
    CircuitBreaker cb(bc, &clock);

    // Failures accumulate; the EWMA may only trip once trusted.
    cb.onOutcome(false);
    cb.onOutcome(false);
    cb.onOutcome(false);
    EXPECT_EQ(cb.state(), BreakerState::Closed);
    cb.onOutcome(false); // 4th event: ewma 0.9375 >= 0.5 -> trip
    EXPECT_EQ(cb.state(), BreakerState::Open);
    EXPECT_EQ(cb.trips(), 1u);

    // Open rejects until the backoff elapses.
    EXPECT_EQ(cb.admit(), CircuitBreaker::Gate::Reject);
    clock.advance(999us);
    EXPECT_EQ(cb.admit(), CircuitBreaker::Gate::Reject);
    clock.advance(1us);
    EXPECT_EQ(cb.admit(), CircuitBreaker::Gate::Probe);
    EXPECT_EQ(cb.state(), BreakerState::HalfOpen);
    // One probe at a time.
    EXPECT_EQ(cb.admit(), CircuitBreaker::Gate::Reject);

    // A failed probe reopens with a fresh backoff.
    cb.onProbeResult(false);
    EXPECT_EQ(cb.state(), BreakerState::Open);
    EXPECT_EQ(cb.probeFailures(), 1u);
    clock.advance(1000us);

    // probe_quota consecutive successes close the breaker.
    EXPECT_EQ(cb.admit(), CircuitBreaker::Gate::Probe);
    cb.onProbeResult(true);
    EXPECT_EQ(cb.state(), BreakerState::HalfOpen);
    EXPECT_EQ(cb.admit(), CircuitBreaker::Gate::Probe);
    cb.onProbeResult(true);
    EXPECT_EQ(cb.state(), BreakerState::Closed);
    EXPECT_EQ(cb.recoveries(), 1u);
    EXPECT_EQ(cb.admit(), CircuitBreaker::Gate::Admit);
    EXPECT_DOUBLE_EQ(cb.failureEwma(), 0.0); // history wiped
}

TEST(CircuitBreaker, AbandonedProbeAllowsTheNextOne)
{
    ManualClock clock;
    serve::BreakerConfig bc;
    bc.alpha = 1.0;
    bc.min_events = 1;
    bc.backoff = 100us;
    CircuitBreaker cb(bc, &clock);
    cb.onOutcome(false);
    ASSERT_EQ(cb.state(), BreakerState::Open);
    clock.advance(100us);
    ASSERT_EQ(cb.admit(), CircuitBreaker::Gate::Probe);
    ASSERT_EQ(cb.admit(), CircuitBreaker::Gate::Reject);
    cb.onProbeAbandoned(); // probe died of an unrelated cause
    EXPECT_EQ(cb.state(), BreakerState::HalfOpen);
    EXPECT_EQ(cb.admit(), CircuitBreaker::Gate::Probe);
}

// ------------------------------------------------ registry routing

TEST(ModelRegistry, RoutesToTheRightModelBitExactly)
{
    RegistryConfig rc;
    rc.server_template = fastTemplate();
    ModelRegistry reg(rc);
    ASSERT_TRUE(reg.install("a", miniArtifact("a", 1, 5)).ok);
    ASSERT_TRUE(reg.install("b", miniArtifact("b", 1, 6)).ok);
    EXPECT_EQ(reg.modelCount(), 2u);
    EXPECT_EQ(reg.state("a"), ModelState::Serving);

    // Reference engines built directly from the same artifacts.
    nn::Network net_a =
        nn::buildTopology(miniSpec(5), nn::PoolingMode::Max);
    nn::Network net_b =
        nn::buildTopology(miniSpec(6), nn::PoolingMode::Max);
    core::ScNetwork ref_a(net_a, miniConfig());
    core::ScNetwork ref_b(net_b, miniConfig());
    const core::PredictOptions popts =
        serve::QosPolicy{core::EngineMode::Fused, 0.0, 0}
            .predictOptions();

    for (uint64_t i = 0; i < 4; ++i) {
        const nn::Tensor img = image(100 + i);
        serve::RequestOptions opts;
        opts.accuracy = serve::AccuracyClass::High;
        opts.seed = 4000 + i;
        const serve::InferenceResult ra =
            reg.submit("a", img, opts).get();
        const serve::InferenceResult rb =
            reg.submit("b", img, opts).get();
        core::ForwardInfo ia, ib;
        const size_t pa =
            ref_a.predictWith(img, 4000 + i, popts, &ia);
        const size_t pb =
            ref_b.predictWith(img, 4000 + i, popts, &ib);
        EXPECT_EQ(ra.predicted, pa);
        EXPECT_EQ(rb.predicted, pb);
        EXPECT_EQ(ra.scores, ia.scores); // bit-exact
        EXPECT_EQ(rb.scores, ib.scores);
    }
}

TEST(ModelRegistry, InstallsAndServesAnInputWiderThanOneWord)
{
    // A 1x4x80 MLP artifact is inside the artifact bounds, so a file
    // that loadArtifact validated must install and serve every class,
    // the Binary-backed Fast class included, bit-exactly.
    nn::TopologySpec spec;
    spec.in_h = 4;
    spec.in_w = 80;
    spec.fc_hidden = {12};
    spec.n_classes = 5;
    spec.seed = 8;
    core::ScNetworkConfig cfg = miniConfig();
    cfg.input_h = spec.in_h;
    cfg.input_w = spec.in_w;
    nn::Network net = nn::buildTopology(spec, nn::PoolingMode::Max);
    const std::string path = tempPath("wide");
    ASSERT_TRUE(serve::saveArtifact(
        serve::makeArtifact("wide", 1, spec, nn::PoolingMode::Max, cfg,
                            net),
        path));

    RegistryConfig rc;
    rc.server_template = fastTemplate();
    ModelRegistry reg(rc);
    const serve::InstallResult res = reg.install("wide", path);
    std::remove(path.c_str());
    ASSERT_TRUE(res.ok) << res.diagnostic;
    EXPECT_EQ(reg.state("wide"), ModelState::Serving);

    const core::ScNetwork ref(net, cfg);
    const nn::Tensor img = image(7, spec.in_h, spec.in_w);
    serve::RequestOptions high;
    high.accuracy = serve::AccuracyClass::High;
    high.seed = 77;
    const serve::InferenceResult rh = reg.submit("wide", img, high).get();
    core::ForwardInfo ih;
    EXPECT_EQ(rh.predicted,
              ref.predictWith(img, 77,
                              serve::QosPolicy{core::EngineMode::Fused,
                                               0.0, 0}
                                  .predictOptions(),
                              &ih));
    EXPECT_EQ(rh.scores, ih.scores);

    serve::RequestOptions fast;
    fast.accuracy = serve::AccuracyClass::Fast;
    const serve::InferenceResult rf = reg.submit("wide", img, fast).get();
    std::vector<double> binary_scores;
    EXPECT_EQ(rf.predicted, ref.binaryNet().predict(img, &binary_scores));
    EXPECT_EQ(rf.scores, binary_scores);
    EXPECT_EQ(rf.effective_bits, 1u);
}

TEST(ModelRegistry, UnknownAndRetiredModelsFailFastWithTypedCodes)
{
    RegistryConfig rc;
    rc.server_template = fastTemplate();
    ModelRegistry reg(rc);
    ASSERT_TRUE(reg.install("a", miniArtifact("a", 1, 5)).ok);

    EXPECT_EQ(codeOf(reg.submit("nope", image(1))),
              ServeErrorCode::UnknownModel);
    EXPECT_EQ(std::string(serve::serveErrorCodeName(
                  ServeErrorCode::UnknownModel)),
              "unknown_model");

    EXPECT_TRUE(reg.retire("a"));
    EXPECT_EQ(reg.state("a"), ModelState::Retired);
    EXPECT_EQ(codeOf(reg.submit("a", image(1))),
              ServeErrorCode::ModelUnavailable);
    EXPECT_EQ(std::string(serve::serveErrorCodeName(
                  ServeErrorCode::ModelUnavailable)),
              "model_unavailable");
    EXPECT_FALSE(reg.retire("missing"));

    const serve::RegistrySnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.unknown_model_rejected, 1u);
    ASSERT_EQ(snap.models.size(), 1u);
    EXPECT_EQ(snap.models[0].state, ModelState::Retired);
    EXPECT_GE(snap.models[0].unavailable_rejected, 1u);
    // Retired entries keep their final serving metrics visible.
    EXPECT_EQ(snap.models[0].server.completed, 0u);
    EXPECT_FALSE(snap.toJson().empty());
}

TEST(ModelRegistry, CorruptArtifactInstallIsRejectedWithDiagnostic)
{
    const std::string path = tempPath("corrupt_install");
    ASSERT_TRUE(
        serve::saveArtifact(miniArtifact("bad", 1, 5), path));

    FaultInjector faults;
    RegistryConfig rc;
    rc.server_template = fastTemplate();
    rc.faults = &faults;
    ModelRegistry reg(rc);

    faults.arm(FaultPoint::ArtifactRead, 1); // corrupt-on-read
    const serve::InstallResult res = reg.install("bad", path);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.diagnostic.find("crc_mismatch"), std::string::npos)
        << res.diagnostic;
    EXPECT_EQ(faults.firedCount(FaultPoint::ArtifactRead), 1u);
    // The failed install never serves; the diagnostic is surfaced.
    EXPECT_EQ(codeOf(reg.submit("bad", image(1))),
              ServeErrorCode::ModelUnavailable);
    EXPECT_EQ(reg.modelSnapshot("bad").last_error, res.diagnostic);

    // Same file, no fault: installs fine (the corruption was injected
    // on the read path, not in the file).
    ASSERT_TRUE(reg.install("bad", path).ok);
    EXPECT_EQ(reg.state("bad"), ModelState::Serving);
    std::remove(path.c_str());
}

TEST(ModelRegistry, SwapInstallCrashLeavesOldVersionServing)
{
    FaultInjector faults;
    RegistryConfig rc;
    rc.server_template = fastTemplate();
    rc.faults = &faults;
    ModelRegistry reg(rc);
    ASSERT_TRUE(reg.install("m", miniArtifact("m", 1, 5)).ok);

    faults.arm(FaultPoint::SwapInstall, 1);
    const serve::InstallResult res =
        reg.install("m", miniArtifact("m", 2, 6));
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.diagnostic.find("injected crash"),
              std::string::npos);

    // v1 keeps serving untouched.
    serve::ModelSnapshot snap = reg.modelSnapshot("m");
    EXPECT_EQ(snap.version, 1u);
    EXPECT_EQ(snap.state, ModelState::Serving);
    EXPECT_EQ(snap.swaps, 0u);
    serve::RequestOptions opts;
    opts.seed = 42;
    EXPECT_NO_THROW(reg.submit("m", image(2), opts).get());

    // Next attempt (no fault) swaps to v2.
    ASSERT_TRUE(reg.install("m", miniArtifact("m", 2, 6)).ok);
    snap = reg.modelSnapshot("m");
    EXPECT_EQ(snap.version, 2u);
    EXPECT_EQ(snap.swaps, 1u);
    EXPECT_TRUE(snap.last_error.empty());
}

TEST(ModelRegistry, BreakerTripsQuarantinesAndRecoversViaProbes)
{
    ManualClock clock;
    FaultInjector faults;
    RegistryConfig rc;
    rc.server_template = fastTemplate();
    rc.clock = &clock;
    rc.faults = &faults;
    rc.breaker.alpha = 0.5;
    rc.breaker.min_events = 4;
    rc.breaker.trip_threshold = 0.5;
    rc.breaker.backoff = 1000us;
    rc.breaker.probe_quota = 2;
    ModelRegistry reg(rc);
    ASSERT_TRUE(reg.install("m", miniArtifact("m", 1, 5)).ok);

    // Poison the model: every routed request fails at the execution
    // fault point until the breaker trips.
    faults.arm(FaultPoint::ModelExecute, 100);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(codeOf(reg.submit("m", image(i))),
                  ServeErrorCode::ModelUnavailable);
    EXPECT_EQ(reg.state("m"), ModelState::Quarantined);
    EXPECT_EQ(reg.breakerState("m"), BreakerState::Open);
    EXPECT_EQ(reg.modelSnapshot("m").trips, 1u);
    EXPECT_EQ(reg.modelSnapshot("m").faulted, 4u);

    // Quarantined: fast rejects, no fault shots consumed.
    const uint64_t faulted_before =
        faults.firedCount(FaultPoint::ModelExecute);
    EXPECT_EQ(codeOf(reg.submit("m", image(9))),
              ServeErrorCode::ModelUnavailable);
    EXPECT_EQ(faults.firedCount(FaultPoint::ModelExecute),
              faulted_before);
    EXPECT_GE(reg.modelSnapshot("m").unavailable_rejected, 1u);

    // Backoff elapses -> half-open; a sabotaged probe re-opens.
    faults.disarm(FaultPoint::ModelExecute);
    clock.advance(1001us);
    faults.arm(FaultPoint::BreakerProbe, 1);
    EXPECT_EQ(codeOf(reg.submit("m", image(10))),
              ServeErrorCode::ModelUnavailable);
    EXPECT_EQ(reg.breakerState("m"), BreakerState::Open);
    EXPECT_EQ(reg.modelSnapshot("m").probe_failures, 1u);

    // Fault cleared: two probe successes close the breaker.
    clock.advance(1001us);
    EXPECT_NO_THROW(reg.submit("m", image(11)).get());
    EXPECT_EQ(reg.breakerState("m"), BreakerState::HalfOpen);
    EXPECT_NO_THROW(reg.submit("m", image(12)).get());
    EXPECT_EQ(reg.breakerState("m"), BreakerState::Closed);
    EXPECT_EQ(reg.state("m"), ModelState::Serving);
    const serve::ModelSnapshot snap = reg.modelSnapshot("m");
    EXPECT_EQ(snap.recoveries, 1u);
    EXPECT_GE(snap.probes, 3u);
    EXPECT_FALSE(snap.toJson().empty());
}

TEST(ModelRegistry, InFlightRequestsBitExactAcrossSwapOfOtherModel)
{
    RegistryConfig rc;
    rc.server_template = fastTemplate();
    rc.server_template.limits.max_batch = 4;
    rc.server_template.limits.max_queue_delay = 500us;
    ModelRegistry reg(rc);
    ASSERT_TRUE(reg.install("a", miniArtifact("a", 1, 5)).ok);
    ASSERT_TRUE(reg.install("b", miniArtifact("b", 1, 6)).ok);

    nn::Network net_a =
        nn::buildTopology(miniSpec(5), nn::PoolingMode::Max);
    core::ScNetwork ref_a(net_a, miniConfig());
    const core::PredictOptions popts =
        serve::QosPolicy{core::EngineMode::Fused, 0.0, 0}
            .predictOptions();

    // Keep a stream of requests in flight on model a while model b is
    // hot-swapped several times; a's results must be bit-exact with
    // the direct reference the whole way through.
    std::atomic<bool> stop{false};
    std::thread swapper([&] {
        for (uint32_t v = 2; !stop.load(); ++v) {
            ASSERT_TRUE(
                reg.install("b", miniArtifact("b", v, 6 + v)).ok);
        }
    });
    for (uint64_t i = 0; i < 48; ++i) {
        const nn::Tensor img = image(500 + i);
        serve::RequestOptions opts;
        opts.accuracy = serve::AccuracyClass::High;
        opts.seed = 9000 + i;
        const serve::InferenceResult r =
            reg.submit("a", img, opts).get();
        core::ForwardInfo info;
        const size_t pred =
            ref_a.predictWith(img, 9000 + i, popts, &info);
        ASSERT_EQ(r.predicted, pred) << "request " << i;
        ASSERT_EQ(r.scores, info.scores) << "request " << i;
    }
    stop.store(true);
    swapper.join();
    EXPECT_GE(reg.modelSnapshot("b").swaps, 1u);
}

TEST(ModelRegistry, ConcurrentRouteSwapRetireIsRaceFree)
{
    // Exercised under TSan in CI: submitters, an installer hot-swapping
    // one model, a snapshot poller and a late retire all racing.
    RegistryConfig rc;
    rc.server_template = fastTemplate();
    rc.server_template.limits.max_batch = 2;
    ModelRegistry reg(rc);
    ASSERT_TRUE(reg.install("a", miniArtifact("a", 1, 5)).ok);
    ASSERT_TRUE(reg.install("b", miniArtifact("b", 1, 6)).ok);

    constexpr int kPerThread = 24;
    std::atomic<int> completed{0};
    std::atomic<bool> stop{false};
    auto submitter = [&](const std::string &id, uint64_t base) {
        for (int i = 0; i < kPerThread; ++i) {
            serve::RequestOptions opts;
            opts.seed = base + i;
            try {
                reg.submit(id, image(base + i), opts).get();
                completed.fetch_add(1);
            } catch (const ServeError &) {
                // Unavailable during a swap/retire window is fine;
                // what matters is no data race and no lost future.
            }
        }
    };
    std::thread t1(submitter, "a", 1000);
    std::thread t2(submitter, "b", 2000);
    std::thread installer([&] {
        for (uint32_t v = 2; v < 6; ++v)
            reg.install("b", miniArtifact("b", v, 10 + v));
    });
    std::thread poller([&] {
        while (!stop.load()) {
            (void)reg.snapshot();
            (void)reg.state("a");
            std::this_thread::yield();
        }
    });
    t1.join();
    t2.join();
    installer.join();
    stop.store(true);
    poller.join();

    EXPECT_TRUE(reg.retire("b"));
    EXPECT_EQ(codeOf(reg.submit("b", image(1))),
              ServeErrorCode::ModelUnavailable);
    // Every submit on "a" resolved (model a was never swapped).
    EXPECT_GE(completed.load(), kPerThread);
    reg.drain();
    reg.shutdown();
}

} // namespace
} // namespace scdcnn
