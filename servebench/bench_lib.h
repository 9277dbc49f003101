/**
 * @file
 * Helpers of the serving benchmark that carry its measurement rules:
 * nearest-rank percentiles, the seeded inputs (Poisson arrivals, pixel
 * noise, class mix, request specs), open-loop due-time accounting with
 * the host-speed correction, the host probe's work, the correctness
 * gate, and span self time. Header-only so helpers_test.cc
 * checks exactly what serve_bench.cc runs.
 */

#ifndef SERVEBENCH_BENCH_LIB_H
#define SERVEBENCH_BENCH_LIB_H

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sc_network.h"
#include "nn/dataset.h"
#include "sc/rng.h"
#include "serve/request.h"

namespace servebench {

using scdcnn::core::PredictOptions;
using scdcnn::core::ScNetwork;
using scdcnn::nn::Tensor;
using scdcnn::sc::SplitMix64;
using scdcnn::serve::AccuracyClass;
using scdcnn::serve::InferenceResult;

/** A percentile together with the number of samples it was taken from. */
struct Percentile
{
    double value = 0.0;
    size_t count = 0;
};

/**
 * Nearest-rank percentile: the smallest sample with at least p% of the
 * samples at or below it (rank ceil(p/100 * n), 1-based). Always an
 * observed value, never an interpolation; 0 with count 0 when empty.
 */
inline Percentile
nearestRank(std::vector<double> samples, double p)
{
    Percentile out;
    out.count = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    const double exact = p / 100.0 * static_cast<double>(samples.size());
    size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
    rank = std::clamp<size_t>(rank, 1, samples.size());
    out.value = samples[rank - 1];
    return out;
}

inline double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** SplitMix64 finalizer over several words: a stable per-(seed, stream,
 *  index) generator seed. */
inline uint64_t
mixSeed(uint64_t a, uint64_t b, uint64_t c = 0)
{
    SplitMix64 g(a ^ 0x9E3779B97F4A7C15ull * (b + 1));
    uint64_t x = g.next();
    SplitMix64 h(x ^ (c * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull));
    return h.next();
}

/**
 * Poisson arrivals at @p rate per second over [0, seconds), conditioned
 * on their count in each of @p strata equal intervals: round(rate *
 * seconds / strata) arrival times drawn uniformly inside each interval,
 * then sorted, which is how a Poisson process places a given number of
 * arrivals. Fixing the counts keeps the offered load of every interval
 * identical across seeds while burstiness still varies. Due times are in
 * seconds from the schedule start and come from a SplitMix64 stream, so
 * the schedule is a function of the seed alone.
 */
inline std::vector<double>
poissonSchedule(uint64_t seed, double rate, double seconds, size_t strata)
{
    SplitMix64 rng(mixSeed(seed, 0xA11));
    const double len = seconds / static_cast<double>(strata);
    const long per = std::lround(rate * len);
    std::vector<double> due;
    for (size_t k = 0; k < strata; ++k)
        for (long i = 0; i < per; ++i)
            due.push_back((static_cast<double>(k) + rng.nextDouble()) * len);
    std::sort(due.begin(), due.end());
    return due;
}

/** One standard normal draw (Box-Muller on two uniforms). */
inline double
gaussian(SplitMix64 &rng)
{
    const double u1 = 1.0 - rng.nextDouble(); // (0, 1]
    const double u2 = rng.nextDouble();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(6.283185307179586 * u2);
}

/** Add N(0, sigma^2) to every pixel, clamped back into [0, 1]. */
inline void
addPixelNoise(Tensor &img, double sigma, uint64_t seed)
{
    if (sigma <= 0.0)
        return;
    SplitMix64 rng(mixSeed(seed, 0x401));
    for (float &px : img.data()) {
        const double v = px + sigma * gaussian(rng);
        px = static_cast<float>(std::clamp(v, 0.0, 1.0));
    }
}

/** A labelled input image of the benchmark. */
struct LabelledImage
{
    Tensor image;
    size_t label = 0;
};

/** One held-out digit: a seeded rendering plus optional pixel noise. */
inline LabelledImage
makeImage(uint64_t seed, double noise_sigma)
{
    SplitMix64 rng(seed);
    LabelledImage li;
    li.label = rng.nextBelow(10);
    li.image = scdcnn::nn::DigitDataset::render(li.label, rng.next());
    addPixelNoise(li.image, noise_sigma, rng.next());
    return li;
}

/** Requests per High/Balanced/Fast in each block of the class mix. */
using ClassMix = std::array<unsigned, 3>;

/**
 * Accuracy class of request @p index: the mix is dealt in blocks of
 * sum(mix) requests, each block a seeded permutation of the mix, so the
 * ratio is exact over every block and the order still varies.
 */
inline AccuracyClass
classFor(uint64_t seed, const ClassMix &mix, size_t index)
{
    std::vector<AccuracyClass> block;
    for (size_t c = 0; c < mix.size(); ++c)
        block.insert(block.end(), mix[c], static_cast<AccuracyClass>(c));
    SplitMix64 rng(mixSeed(seed, 0xC1A55, index / block.size()));
    for (size_t i = block.size(); i > 1; --i)
        std::swap(block[i - 1], block[rng.nextBelow(i)]);
    return block[index % block.size()];
}

/** What one request sends: an image of the pool, its class and the
 *  explicit engine seed that makes its answer reproducible. */
struct RequestSpec
{
    size_t image = 0;
    AccuracyClass cls = AccuracyClass::High;
    uint64_t engine_seed = 0;
};

/** Request @p index of stream @p stream (warm-up, measured, traced ...)
 *  over an image pool of @p pool_size. */
inline RequestSpec
requestSpec(uint64_t seed, uint64_t stream, size_t index, size_t pool_size,
            const ClassMix &mix)
{
    SplitMix64 rng(mixSeed(seed, stream, index));
    RequestSpec r;
    r.image = rng.nextBelow(pool_size);
    r.engine_seed = rng.next();
    r.cls = classFor(mixSeed(seed, stream), mix, index);
    return r;
}

/**
 * Open-loop timing of one request, in seconds from the phase start:
 * when it was due, when the generator actually sent it, and when the
 * answer was seen. Latency runs from the due time, so a stalled
 * generator counts as waiting for every request it delays.
 */
struct DueTimes
{
    double due = 0.0;
    double sent = 0.0;
    double seen = 0.0;

    double latencyMs() const { return (seen - due) * 1e3; }
    double latenessMs() const { return (sent - due) * 1e3; }
};

/**
 * One measured interval: its requests, timed from the interval's own
 * start, its nominal length, and how slow the host ran around it
 * (host-probe time over the reference probe time; 1 on a reference
 * host, 2 when every instruction takes twice as long).
 */
struct IntervalTimes
{
    std::vector<DueTimes> reqs;
    double seconds = 0.0;
    double slowdown = 1.0;
};

/**
 * End-to-end numbers of one measured phase, made of equal intervals.
 * Each is given twice: as measured (raw_*) and divided by the host
 * slowdown of its interval, i.e. at the speed of the reference host.
 * - ips: the rate of the answers seen in each interval, as the median
 *   over the intervals. In an interval: answers after the first, over
 *   the time from the first to the last (a count over the nominal length
 *   would only take a few values, identical run after run in an open
 *   loop). Only a capacity-bound (closed-loop) rate is scaled by the
 *   slowdown; an open loop delivers its offered rate on any host.
 * - p50, p90: nearest rank over the latencies of every interval's
 *   requests, each divided by its interval's slowdown.
 * Generator lateness is as measured, over the whole phase.
 */
struct PhaseReport
{
    double ips = 0.0;
    double p50_ms = 0.0, p90_ms = 0.0;
    double raw_ips = 0.0;
    double raw_p50_ms = 0.0, raw_p90_ms = 0.0;
    double slowdown = 1.0;       //!< median over the intervals
    size_t samples = 0;          //!< latency samples in the phase
    size_t interval_samples = 0; //!< fewest in any one interval
    double max_lateness_ms = 0.0;
    Percentile lateness_p99;
};

inline PhaseReport
phaseReport(const std::vector<IntervalTimes> &intervals, bool closed_loop)
{
    PhaseReport r;
    std::vector<double> lat, raw_lat, ips, raw_ips, late, slow;
    r.interval_samples = intervals.empty() ? 0 : SIZE_MAX;
    for (const IntervalTimes &iv : intervals) {
        std::vector<double> seen;
        for (const DueTimes &d : iv.reqs) {
            raw_lat.push_back(d.latencyMs());
            lat.push_back(d.latencyMs() / iv.slowdown);
            late.push_back(d.latenessMs());
            if (d.seen < iv.seconds)
                seen.push_back(d.seen);
        }
        const auto [lo, hi] = std::minmax_element(seen.begin(), seen.end());
        const double rate =
            seen.size() > 1 && *hi > *lo
                ? static_cast<double>(seen.size() - 1) / (*hi - *lo)
                : 0.0;
        raw_ips.push_back(rate);
        ips.push_back(closed_loop ? rate * iv.slowdown : rate);
        slow.push_back(iv.slowdown);
        r.interval_samples = std::min(r.interval_samples, iv.reqs.size());
    }
    r.samples = lat.size();
    r.ips = nearestRank(ips, 50).value;
    r.raw_ips = nearestRank(raw_ips, 50).value;
    r.p50_ms = nearestRank(lat, 50).value;
    r.p90_ms = nearestRank(lat, 90).value;
    r.raw_p50_ms = nearestRank(raw_lat, 50).value;
    r.raw_p90_ms = nearestRank(raw_lat, 90).value;
    r.slowdown = nearestRank(slow, 50).value;
    r.lateness_p99 = nearestRank(late, 99);
    for (double l : late)
        r.max_lateness_ms = std::max(r.max_lateness_ms, l);
    return r;
}

/**
 * The host probe's work: a fixed chain of multiply-add steps and
 * popcounts over an 8 KiB buffer that the chain keeps rewriting, so it
 * can be neither vectorised nor folded away. It is the benchmark's own
 * code and touches no program code, so only the machine can change how
 * long it takes. Returns a checksum that depends on every step.
 */
inline uint64_t
probeWork(size_t rounds)
{
    std::array<uint64_t, 1024> buf;
    SplitMix64 fill(0x9A0BE);
    for (uint64_t &w : buf)
        w = fill.next();
    uint64_t x = 1, acc = 0;
    for (size_t r = 0; r < rounds; ++r)
        for (uint64_t &w : buf) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            acc += static_cast<uint64_t>(std::popcount(w ^ x));
            w = (w << 1 | w >> 63) ^ acc;
        }
    return acc;
}

/**
 * The correctness gate for one served answer: re-run the request
 * through a direct ScNetwork::predictWith at the seed the request
 * carried and the requested class's policy. Returns "" when the answer
 * is identical (prediction and every score), the class and seed were
 * served as requested and no more than @p stream_len bits were spent;
 * otherwise the reason.
 */
inline std::string
gateMismatch(const ScNetwork &net, const Tensor &image,
             AccuracyClass requested, uint64_t requested_seed,
             const PredictOptions &policy, const InferenceResult &served,
             size_t stream_len)
{
    if (served.served != requested)
        return "served class differs from requested";
    if (served.seed != requested_seed)
        return "served seed differs from requested";
    if (served.effective_bits > stream_len)
        return "effective_bits exceeds the stream length";
    scdcnn::core::ForwardInfo info;
    const size_t predicted =
        net.predictWith(image, requested_seed, policy, nullptr, &info);
    if (predicted != served.predicted)
        return "prediction differs from direct predictWith";
    if (info.scores != served.scores)
        return "scores differ from direct predictWith";
    return "";
}

/** One benchmark span: a call into a layer, timed from outside it. */
struct Span
{
    std::string name;
    std::string layer;  //!< serve / core / sc / pool / bench
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;    //!< index of the enclosing span, -1 for a root
    int64_t request = -1;
};

/**
 * Self time per layer, in microseconds: each span's duration minus the
 * part of its interval that its child spans cover (children may
 * overlap one another, e.g. concurrent requests under one phase).
 */
inline std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].push_back(
                {s.start_us, s.end_us});
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (auto [a, b] : iv) {
            a = std::max(a, s.start_us);
            b = std::min(b, s.end_us);
            if (b <= a)
                continue;
            if (a > hi) {
                covered += std::max(0.0, hi - lo);
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        covered += std::max(0.0, hi - lo);
        self[s.layer] += (s.end_us - s.start_us) - covered;
    }
    return self;
}

} // namespace servebench

#endif // SERVEBENCH_BENCH_LIB_H
