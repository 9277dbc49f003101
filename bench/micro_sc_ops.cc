/**
 * @file
 * Host-side throughput microbenchmarks of the SC simulator primitives
 * (google-benchmark): stream generation, gate ops, counting, FSMs.
 */

#include <benchmark/benchmark.h>

#include "blocks/pooling.h"
#include "sc/btanh.h"
#include "sc/counter.h"
#include "sc/fsm_batch.h"
#include "sc/fused.h"
#include "sc/ops.h"
#include "sc/rng.h"
#include "sc/simd.h"
#include "sc/sng.h"
#include "sc/stanh.h"

using namespace scdcnn::sc;

namespace {

void
BM_SngBipolar(benchmark::State &state)
{
    const size_t len = static_cast<size_t>(state.range(0));
    Xoshiro256ss rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(sngBipolar(0.3, len, rng));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(len));
}
BENCHMARK(BM_SngBipolar)->Arg(256)->Arg(1024)->Arg(4096);

/**
 * The engine's SNG path: SngBank::bipolarInto filling four streams in
 * place per iteration, through the scalar word body (second arg 0) or
 * the four-generator AVX2 body (1; the scalar body again when the CPU
 * lacks AVX2). `stream_time` is the per-stream cost.
 */
void
BM_SngBipolarInto(benchmark::State &state)
{
    const size_t len = static_cast<size_t>(state.range(0));
    const simd::Level was_level = simd::level();
    simd::setLevel(state.range(1) != 0 ? simd::Level::Avx2
                                       : simd::Level::Scalar);
    const size_t stride = (len + 63) / 64;
    std::vector<uint64_t> words(4 * stride);
    const double xs[4] = {0.3, -0.6, 0.05, 0.9};
    SngBank bank(1);
    for (auto _ : state) {
        bank.bipolarInto(xs, len, words.data(), stride);
        benchmark::DoNotOptimize(words.data());
        benchmark::ClobberMemory();
    }
    simd::setLevel(was_level);
    const auto streams = static_cast<double>(state.iterations()) * 4;
    state.counters["stream_time"] = benchmark::Counter(
        streams, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.SetItemsProcessed(static_cast<int64_t>(streams) *
                            static_cast<int64_t>(len));
}
BENCHMARK(BM_SngBipolarInto)
    ->ArgNames({"len", "avx2"})
    ->ArgsProduct({{256, 1024, 4096}, {0, 1}});

void
BM_SngBipolarLfsr(benchmark::State &state)
{
    const size_t len = static_cast<size_t>(state.range(0));
    Lfsr lfsr(16, 0xACE1);
    for (auto _ : state)
        benchmark::DoNotOptimize(sngBipolar(0.3, len, lfsr));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(len));
}
BENCHMARK(BM_SngBipolarLfsr)->Arg(1024);

void
BM_XnorMultiply(benchmark::State &state)
{
    const size_t len = static_cast<size_t>(state.range(0));
    SngBank bank(2);
    Bitstream a = bank.bipolar(0.4, len);
    Bitstream b = bank.bipolar(-0.2, len);
    for (auto _ : state)
        benchmark::DoNotOptimize(xnorMultiply(a, b));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(len));
}
BENCHMARK(BM_XnorMultiply)->Arg(1024)->Arg(8192);

void
BM_MuxAdd(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    SngBank bank(3);
    std::vector<Bitstream> ins;
    for (size_t i = 0; i < n; ++i)
        ins.push_back(bank.bipolar(0.1, 1024));
    Xoshiro256ss sel(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(muxAdd(ins, sel));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_MuxAdd)->Arg(16)->Arg(64)->Arg(256);

void
BM_ApcCounts(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    SngBank bank(5);
    std::vector<Bitstream> ins;
    for (size_t i = 0; i < n; ++i)
        ins.push_back(bank.bipolar(0.0, 1024));
    for (auto _ : state)
        benchmark::DoNotOptimize(ApproxParallelCounter::counts(ins));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(n) * 1024);
}
BENCHMARK(BM_ApcCounts)->Arg(16)->Arg(64)->Arg(256)->Arg(512);

void
BM_Stanh(benchmark::State &state)
{
    SngBank bank(6);
    Bitstream in = bank.bipolar(0.2, 4096);
    for (auto _ : state) {
        Stanh fsm(16);
        benchmark::DoNotOptimize(fsm.transform(in));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Stanh);

void
BM_Btanh(benchmark::State &state)
{
    SngBank bank(7);
    std::vector<Bitstream> ins;
    for (int i = 0; i < 64; ++i)
        ins.push_back(bank.bipolar(0.0, 1024));
    auto counts = ParallelCounter::counts(ins);
    for (auto _ : state) {
        Btanh unit(128, 64);
        benchmark::DoNotOptimize(unit.transform(counts));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Btanh);

/**
 * Per-call cost of the engine's batched activation kernels over count
 * or word streams (the fc and average-pooled stages' Btanh, the MUX
 * stages' Stanh) at L = 1024 over n streams (pixels): `call_time` is
 * one call over all n, `stream_time` the per-stream share. One stream
 * costs about as much as a full sc::kFsmBatchTile, which is why the
 * engine gathers pixels into tiles before calling these.
 */
void
setPerCallCounters(benchmark::State &state, size_t n)
{
    const auto calls = static_cast<double>(state.iterations());
    state.counters["call_time"] = benchmark::Counter(
        calls, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.counters["stream_time"] = benchmark::Counter(
        calls * static_cast<double>(n),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

constexpr size_t kBatchLen = 1024;
constexpr size_t kBatchWords = kBatchLen / 64;

/** Stanh over MUX product streams (K = 8). */
void
BM_StanhWordsBatch(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    const StanhBatchTable table(8);
    SplitMix64 vals(12);
    std::vector<std::vector<uint64_t>> ins(
        n, std::vector<uint64_t>(kBatchWords));
    std::vector<std::vector<uint64_t>> outs(
        n, std::vector<uint64_t>(kBatchWords));
    std::vector<uint16_t> fsm(n, table.initialState());
    std::vector<const uint64_t *> in_p(n);
    std::vector<uint64_t *> out_p(n);
    std::vector<uint16_t *> st_p(n);
    for (size_t s = 0; s < n; ++s) {
        for (auto &w : ins[s])
            w = vals.next();
        in_p[s] = ins[s].data();
        out_p[s] = outs[s].data();
        st_p[s] = &fsm[s];
    }
    for (auto _ : state) {
        table.transformWordsBatch(in_p.data(), kBatchLen, out_p.data(),
                                  st_p.data(), n);
        benchmark::ClobberMemory();
    }
    setPerCallCounters(state, n);
}
BENCHMARK(BM_StanhWordsBatch)
    ->ArgName("streams")
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(32);

/**
 * One flush of an APC pixel tile at L = 1024, at dispatch level `level`
 * (0 scalar, 1 AVX2, 2 AVX-512; capped at what the host runs).
 * `pixel_time` is the flush time per pixel: a B = 1 tile holds 16
 * pixels, a B = 8 one 32.
 *
 * BM_PoolActivateTile: a max-pooled stage's flush, the Figure 8 selector
 * over the four windows' count planes (c = 16, accumulative counters)
 * and the Btanh over the winners' planes, for a layer with 26 taps
 * (plane_cap 5, the served mini-LeNet's conv1) or 201 (plane_cap 8, its
 * conv2). BM_PoolActivateTile/fc: an fc stage's flush, the Btanh over a
 * one-input tile with every winner 0, at 257 taps (plane_cap 9, the
 * mini-LeNet's fc).
 */
void
poolActivateTile(benchmark::State &state, size_t n_inputs)
{
    const size_t n = static_cast<size_t>(state.range(0));
    const size_t taps = static_cast<size_t>(state.range(1));
    const simd::Level was_level = simd::level();
    simd::setLevel(static_cast<simd::Level>(state.range(2)));
    const size_t cap = planeCapForTaps(taps);
    const size_t stride = (n + 15) / 16 * 16;
    SplitMix64 vals(13);
    std::vector<uint64_t> planes(n_inputs * kBatchWords * (cap + 1) *
                                 stride);
    for (auto &w : planes)
        w = vals.next();
    const simd::PlaneTile tile{.planes = planes.data(),
                               .n_inputs = n_inputs,
                               .n_words = kBatchWords,
                               .plane_cap = cap,
                               .pixel_stride = stride,
                               .parity = true};
    const BtanhBatchTable table(8, static_cast<unsigned>(taps));
    std::vector<uint64_t> counters(4 * stride);
    std::vector<uint32_t> selected(stride, 0);
    std::vector<uint16_t> fsm(stride, table.initialState());
    std::vector<uint8_t> winners(kBatchWords * stride * 4);
    std::vector<uint64_t> outs(kBatchWords * stride), forwarded;
    for (auto _ : state) {
        simd::PlaneTile pooled = tile;
        if (n_inputs > 1) {
            // Fresh counters per flush, as a stream's first segment has.
            std::fill(counters.begin(), counters.end(), 0);
            pooled = scdcnn::blocks::binaryMaxPoolPlanesBatch(
                tile, n, 0, kBatchLen, 16, /*accumulate=*/true,
                {counters.data(), selected.data()}, winners.data(),
                forwarded);
        }
        table.transformTile(pooled, winners.data(), n, kBatchLen,
                            fsm.data(), outs.data());
        benchmark::ClobberMemory();
    }
    simd::setLevel(was_level);
    state.counters["pixel_time"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * static_cast<double>(n),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void
BM_PoolActivateTile(benchmark::State &state)
{
    poolActivateTile(state, 4);
}
BENCHMARK(BM_PoolActivateTile)
    ->ArgNames({"pixels", "taps", "level"})
    ->ArgsProduct({{16, 32}, {26, 201}, {0, 1, 2}});

[[maybe_unused]] const benchmark::internal::Benchmark *const kFcArm =
    benchmark::RegisterBenchmark("BM_PoolActivateTile/fc", poolActivateTile,
                                 size_t{1})
        ->ArgNames({"pixels", "taps", "level"})
        ->ArgsProduct({{16, 32}, {257}, {0, 1, 2}});

/**
 * The product fold at the served mini-LeNet's shapes, L = 1024, a
 * micro-batch of 8 images in the batch-major layout the engine gathers
 * (the last tap is the shared stride-0 bias line), one four-lane
 * filter block, at dispatch level `level` (0 scalar, 1 AVX2, 2
 * AVX-512; capped at what the host runs). `line_word_time` is the cost
 * of one product line of one 64-bit word of one image, all four lanes:
 * the call time over taps x words x images.
 */
struct FoldShape
{
    BatchStreamArena xs_arena;
    Bitstream bias;
    std::vector<BitstreamView> xs0;
    std::vector<size_t> strides;
    InterleavedWeightArena weights;
    std::vector<uint32_t> images;

    FoldShape(size_t taps, size_t n_images)
    {
        SngBank bank(14 + taps);
        SplitMix64 vals(15 + taps);
        xs_arena.reset(taps - 1, n_images, kBatchLen);
        for (size_t t = 0; t + 1 < taps; ++t)
            for (size_t b = 0; b < n_images; ++b)
                xs_arena.assign(t, b,
                                bank.bipolar(vals.nextInRange(-1, 1),
                                             kBatchLen));
        bias = bank.bipolar(1.0, kBatchLen);
        for (size_t t = 0; t + 1 < taps; ++t) {
            xs0.push_back(xs_arena.view(t, 0));
            strides.push_back(xs_arena.strideWords());
        }
        xs0.push_back(BitstreamView(bias));
        strides.push_back(0);
        weights.reset(kFilterLanes, taps, kBatchLen);
        for (size_t f = 0; f < kFilterLanes; ++f)
            for (size_t t = 0; t < taps; ++t)
                weights.assign(f, t,
                               bank.bipolar(vals.nextInRange(-1, 1),
                                            kBatchLen));
        for (size_t b = 0; b < n_images; ++b)
            images.push_back(static_cast<uint32_t>(b));
    }
};

void
setFoldCounters(benchmark::State &state, size_t taps, size_t n_images)
{
    state.counters["line_word_time"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(taps * kBatchWords * n_images),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/** The plane form (max-pooled conv stages): conv1's 26 taps run
 *  image-outer, conv2's 201 word-outer. */
void
BM_ProductPlanesBatch(benchmark::State &state)
{
    const size_t taps = static_cast<size_t>(state.range(0));
    constexpr size_t kImages = 8;
    const simd::Level was_level = simd::level();
    simd::setLevel(static_cast<simd::Level>(state.range(1)));
    FoldShape shape(taps, kImages);
    // The pixel tile's layout: the images' lanes side by side per row.
    const size_t cap = planeCapForTaps(taps);
    const size_t row_stride = kImages * kFilterLanes;
    std::vector<uint64_t> planes(kBatchWords * (cap + 1) * row_stride);
    for (auto _ : state) {
        fusedProductPlanesMultiBatch(
            shape.xs0, shape.strides, shape.images.data(), kImages,
            shape.weights.block(0), /*approximate=*/true, 0, kBatchWords,
            planes.data(), cap, row_stride, kFilterLanes);
        benchmark::ClobberMemory();
    }
    simd::setLevel(was_level);
    setFoldCounters(state, taps, kImages);
}
BENCHMARK(BM_ProductPlanesBatch)
    ->ArgNames({"taps", "level"})
    ->ArgsProduct({{26, 201}, {0, 1, 2}});

/** The counts form (fc stages and the output layer): the served fc
 *  stage's 257 taps. */
void
BM_ProductCountsBatch(benchmark::State &state)
{
    const size_t taps = static_cast<size_t>(state.range(0));
    constexpr size_t kImages = 8;
    const simd::Level was_level = simd::level();
    simd::setLevel(static_cast<simd::Level>(state.range(1)));
    FoldShape shape(taps, kImages);
    std::vector<uint16_t> counts(kImages * kFilterLanes * kBatchLen);
    for (auto _ : state) {
        fusedProductCountsMultiBatch(
            shape.xs0, shape.strides, shape.images.data(), kImages,
            shape.weights.block(0), /*approximate=*/true, 0, kBatchWords,
            counts.data(), kBatchLen, kFilterLanes * kBatchLen);
        benchmark::ClobberMemory();
    }
    simd::setLevel(was_level);
    setFoldCounters(state, taps, kImages);
}
BENCHMARK(BM_ProductCountsBatch)
    ->ArgNames({"taps", "level"})
    ->ArgsProduct({{257}, {0, 1, 2}});

} // namespace

BENCHMARK_MAIN();
