/**
 * @file
 * Host-side throughput microbenchmarks of the SC simulator primitives
 * (google-benchmark): stream generation, gate ops, counting, FSMs.
 */

#include <benchmark/benchmark.h>

#include "sc/btanh.h"
#include "sc/counter.h"
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
    const bool was_enabled = simd::enabled();
    simd::setEnabled(state.range(1) != 0);
    const size_t stride = (len + 63) / 64;
    std::vector<uint64_t> words(4 * stride);
    const double xs[4] = {0.3, -0.6, 0.05, 0.9};
    SngBank bank(1);
    for (auto _ : state) {
        bank.bipolarInto(xs, len, words.data(), stride);
        benchmark::DoNotOptimize(words.data());
        benchmark::ClobberMemory();
    }
    simd::setEnabled(was_enabled);
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

} // namespace

BENCHMARK_MAIN();
