#include "core/sc_network.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "blocks/activation.h"
#include "blocks/feature_block.h"
#include "blocks/pooling.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "nn/quantize.h"
#include "obs/trace.h"
#include "sc/btanh.h"
#include "sc/fused.h"
#include "sc/simd.h"
#include "sc/sng.h"
#include "sc/stanh.h"

namespace scdcnn {
namespace core {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t
nsSince(Clock::time_point t0)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

/** One engine phase span of @p dur_ns ending now, with the segment's
 *  first word as the "seg" argument (no-op when disarmed or empty). */
void
emitPhase(obs::SpanName name, uint64_t dur_ns, size_t seg_w0)
{
    if (dur_ns == 0 || !obs::armed())
        return;
    obs::TraceRecorder &rec = obs::TraceRecorder::instance();
    rec.spanComplete(name, rec.nowNs() - dur_ns, dur_ns, 0, 0, seg_w0);
}

/**
 * Per-chunk phase stopwatch: laps accumulate locally (no atomics in
 * the pixel loop) and the chunk flushes once into the trace as
 * per-segment phase spans, which the recorder also folds into its
 * aggregate phase profile. The stopwatch is off while tracing is
 * disarmed — start(), lap() and flush() are then no-ops, so neither
 * the trace nor the aggregate profile sees those runs.
 */
struct PhaseTimer
{
    PhaseTimer() : on(obs::armed()) {}

    void start()
    {
        if (on)
            last = Clock::now();
    }

    void lap(uint64_t &bucket)
    {
        if (!on)
            return;
        const Clock::time_point now = Clock::now();
        bucket += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                 last)
                .count());
        last = now;
    }

    /** Chunk flush: one span per phase, end-anchored at the
     *  recorder's clock. */
    void flush(size_t seg_w0) const
    {
        emitPhase(obs::SpanName::InnerProduct, inner_product, seg_w0);
        emitPhase(obs::SpanName::Pooling, pooling, seg_w0);
        emitPhase(obs::SpanName::Activation, activation, seg_w0);
    }

    bool on;
    Clock::time_point last;
    uint64_t inner_product = 0;
    uint64_t pooling = 0;
    uint64_t activation = 0;
};

/**
 * Stateless per-site generator seed: mixes (base seed, layer, site)
 * through SplitMix64 so every pixel/neuron derives its randomness from
 * its position rather than from evaluation order. Any partition of a
 * layer across threads therefore produces bit-identical streams.
 */
uint64_t
siteSeed(uint64_t seed, uint64_t layer_idx, uint64_t site)
{
    sc::SplitMix64 mix(seed ^
                       0x9E3779B97F4A7C15ULL * (layer_idx + 1) ^
                       0xBF58476D1CE4E5B9ULL * (site + 1));
    return mix.next();
}

/** Salt separating the MUX-select generator family from other
 *  randomized sites of the same (seed, layer). */
constexpr uint64_t kSelectSalt = 0x5E1EC7A5C0DEBEEFULL;

/** Salt for the MUX average-pooling generators. */
constexpr uint64_t kPoolSalt = 0xAB00057EDB00157EULL;

/** Checkpoint granularity Progressive mode and cancellable calls fall
 *  back to when ScNetworkConfig::stream_segment_words asks for
 *  whole-stream execution (which would leave no mid-stream boundary
 *  to exit or cancel at). */
constexpr size_t kCheckpointFallbackSegmentWords = 4;

/** Work items whose (filter lane x active image) pixels fill one
 *  sc::kFsmBatchTile-stream FSM tile (at least one item). */
size_t
tileItems(size_t n_active)
{
    const size_t per_item = sc::kFilterLanes * n_active;
    return (sc::kFsmBatchTile + per_item - 1) / per_item;
}

/**
 * Pool + activate over a tile of pixels gathered across consecutive
 * work items of one chunk (DESIGN.md, "Pixel tiles"). Each entry is
 * one (item, filter lane, active image) pixel with its own window
 * inputs, output words and carried FSM / selector / MUX-generator
 * state, so grouping pixels into tiles never changes an output bit.
 * flush() pools every entry, then steps all their activation units in
 * one batched FSM call: a single image's pixels fill the
 * kFsmBatchTile lanes as well as a full micro-batch's do.
 *
 * An APC stage's tile owns its windows' count planes in the
 * pixel-minor sc::simd::PlaneTile layout, which the product fold
 * writes directly (planes()): tile pixel (slot, image, lane) sits at
 * (slot * n_active + image) * kFilterLanes + lane, its carried state
 * in pixel lanes gathered at flush. An unpooled (fc) stage's tile has
 * one input, every winner 0.
 */
class PixelTile
{
  public:
    /** How a pixel's inputs reach its activation unit. */
    enum class Pool
    {
        None,    //!< fc: the inner product feeds the unit directly
        Max,     //!< Figure 8 selector (APC layers: over count planes)
        Average, //!< signed APC mean, or the MUX average
    };

    /** The layer's pooling and activation units over one segment. */
    struct Spec
    {
        Pool pool = Pool::None;
        const sc::BtanhBatchTable *btanh = nullptr; //!< APC layers
        const sc::StanhBatchTable *stanh = nullptr; //!< MUX layers
        size_t n_inputs = 0;    //!< APC fan-in (signed mean)
        size_t plane_cap = 0;   //!< APC: count planes per word
        size_t segment_len = 0; //!< Figure 8 pooling segment c
        size_t c0 = 0;          //!< segment's first absolute cycle
        size_t n_cycles = 0;    //!< segment length in cycles
    };

    PixelTile(const Spec &spec, size_t capacity) : spec_(spec)
    {
        // An APC tile pools and activates its plane tile in place (the
        // average-pooled one through one signed-step slice per entry);
        // a pooled MUX tile keeps one pooled word slice per entry.
        const size_t words = (spec_.n_cycles + 63) / 64;
        if (spec_.btanh != nullptr) {
            const size_t stride = (capacity + 15) / 16 * 16;
            planes_.assign(fan() * words * (spec_.plane_cap + 1) * stride,
                           0);
            tile_ = {.planes = planes_.data(),
                     .n_inputs = fan(),
                     .n_words = words,
                     .plane_cap = spec_.plane_cap,
                     .pixel_stride = stride,
                     .parity = true};
            if (spec_.pool == Pool::Average) {
                counts_.resize(4 * words * 64);
                steps_.resize(capacity * words * 64);
                for (size_t e = 0; e < capacity; ++e)
                    step_ptrs_.push_back(steps_.data() + e * words * 64);
            } else {
                lane_fsm_.resize(stride);
                winners_.resize(words * stride * 4); // fc: every one 0
                lane_outs_.resize(words * stride);
            }
            if (spec_.pool == Pool::Max) {
                lane_counters_.resize(4 * stride);
                lane_selected_.resize(stride);
            }
        } else if (spec_.pool != Pool::None) {
            pooled_words_.resize(capacity * words);
            for (size_t e = 0; e < capacity; ++e)
                pooled_word_ptrs_.push_back(pooled_words_.data() +
                                            e * words);
        }
    }

    /** APC stages: where the fold writes window @p window's rows from
     *  tile pixel @p pixel on, row stride pixelStride(). */
    uint64_t *planes(size_t window, size_t pixel)
    {
        return planes_.data() +
               window * tile_.n_words * (tile_.plane_cap + 1) *
                   tile_.pixel_stride +
               pixel;
    }

    size_t pixelStride() const { return tile_.pixel_stride; }

    /** Register a MUX stage's pixel, read as product streams, with its
     *  selector state (max pooling) or MUX generator (average). */
    void add(const uint64_t *const *in, uint64_t *out, uint16_t *fsm,
             blocks::MaxPoolCarry max = {}, sc::Xoshiro256ss *rng = nullptr)
    {
        words_.insert(words_.end(), in, in + fan());
        max_.push_back(max);
        rng_.push_back(rng);
        outs_.push_back(out);
        fsm_.push_back(fsm);
    }

    /** Register tile pixel @p pixel of an APC stage, whose planes the
     *  fold wrote through planes(), with its selector state (max
     *  pooling). */
    void add(size_t pixel, uint64_t *out, uint16_t *fsm,
             blocks::MaxPoolCarry max = {})
    {
        pixels_.push_back(pixel);
        max_.push_back(max);
        outs_.push_back(out);
        fsm_.push_back(fsm);
    }

    /** Pool and activate every registered pixel, timing the two
     *  phases on @p timer, and empty the tile. */
    void flush(PhaseTimer &timer)
    {
        const size_t n = outs_.size();
        if (n == 0)
            return;
        timer.start();
        const size_t len = spec_.n_cycles;
        if (spec_.btanh != nullptr) {
            if (spec_.pool == Pool::Average) {
                for (size_t e = 0; e < n; ++e)
                    blocks::binaryAveragePoolingSignedPlanes(
                        tile_, pixels_[e], spec_.n_inputs, len,
                        counts_.data(), step_ptrs_[e]);
                timer.lap(timer.pooling);
                spec_.btanh->transformSignedWordsBatch(
                    step_ptrs_.data(), len, outs_.data(), fsm_.data(), n);
            } else {
                flushPlanes(timer);
            }
        } else if (spec_.pool != Pool::None) {
            for (size_t e = 0; e < n; ++e) {
                if (spec_.pool == Pool::Max)
                    blocks::maxPoolStreamsRange(
                        words_.data() + 4 * e, 4, spec_.c0, len,
                        spec_.segment_len, /*accumulate=*/true, max_[e],
                        pooled_word_ptrs_[e]);
                else
                    blocks::averagePoolingRange(words_.data() + 4 * e, 4,
                                                len, *rng_[e],
                                                pooled_word_ptrs_[e]);
            }
            timer.lap(timer.pooling);
            spec_.stanh->transformWordsBatch(pooled_word_ptrs_.data(), len,
                                             outs_.data(), fsm_.data(), n);
        } else {
            spec_.stanh->transformWordsBatch(words_.data(), len,
                                             outs_.data(), fsm_.data(), n);
        }
        timer.lap(timer.activation);
        words_.clear();
        pixels_.clear();
        max_.clear();
        rng_.clear();
        outs_.clear();
        fsm_.clear();
    }

  private:
    /** Window inputs per pixel. */
    size_t fan() const { return spec_.pool == Pool::None ? 1 : 4; }

    /** The max-pooled and fc APC flush: the pixels' carried state
     *  gathered into lanes (unregistered lanes zero), the Figure 8
     *  selector over the plane tile (max pooling), then the Btanh over
     *  the winners' planes. */
    void flushPlanes(PhaseTimer &timer)
    {
        const size_t S = tile_.pixel_stride;
        const bool max = spec_.pool == Pool::Max;
        std::fill(lane_counters_.begin(), lane_counters_.end(), 0);
        std::fill(lane_selected_.begin(), lane_selected_.end(), 0);
        std::fill(lane_fsm_.begin(), lane_fsm_.end(), 0);
        size_t n_pixels = 0;
        for (size_t e = 0; e < pixels_.size(); ++e) {
            const size_t px = pixels_[e];
            if (max) {
                for (size_t k = 0; k < 4; ++k)
                    lane_counters_[k * S + px] = max_[e].counters[k];
                lane_selected_[px] = *max_[e].selected;
            }
            lane_fsm_[px] = *fsm_[e];
            n_pixels = std::max(n_pixels, px + 1);
        }
        sc::simd::PlaneTile pooled = tile_;
        if (max) {
            pooled = blocks::binaryMaxPoolPlanesBatch(
                tile_, n_pixels, spec_.c0, spec_.n_cycles,
                spec_.segment_len, /*accumulate=*/true,
                {lane_counters_.data(), lane_selected_.data()},
                winners_.data(), forwarded_);
            for (size_t e = 0; e < pixels_.size(); ++e) {
                const size_t px = pixels_[e];
                for (size_t k = 0; k < 4; ++k)
                    max_[e].counters[k] = lane_counters_[k * S + px];
                *max_[e].selected = lane_selected_[px];
            }
            timer.lap(timer.pooling);
        }
        spec_.btanh->transformTile(pooled, winners_.data(), n_pixels,
                                   spec_.n_cycles, lane_fsm_.data(),
                                   lane_outs_.data());
        for (size_t e = 0; e < pixels_.size(); ++e) {
            const size_t px = pixels_[e];
            for (size_t q = 0; q < tile_.n_words; ++q)
                outs_[e][q] = lane_outs_[q * S + px];
            *fsm_[e] = lane_fsm_[px];
        }
    }

    Spec spec_;
    // The registered pixels: fan() product streams each (MUX stages)
    // or a plane-tile pixel (APC stages), then one state / output
    // pointer each.
    std::vector<const uint64_t *> words_;
    std::vector<size_t> pixels_;
    std::vector<blocks::MaxPoolCarry> max_;
    std::vector<sc::Xoshiro256ss *> rng_;
    std::vector<uint64_t *> outs_;
    std::vector<uint16_t *> fsm_;
    // Pooled slices, one per entry of a full tile, and the average
    // pooling's per-pixel window counts.
    std::vector<int> steps_;
    std::vector<uint64_t> pooled_words_;
    std::vector<int *> step_ptrs_;
    std::vector<uint64_t *> pooled_word_ptrs_;
    std::vector<uint16_t> counts_;
    // The APC plane tile and its pixel lanes.
    sc::simd::PlaneTile tile_;
    std::vector<uint64_t> planes_;
    std::vector<uint64_t> lane_counters_;
    std::vector<uint32_t> lane_selected_;
    std::vector<uint16_t> lane_fsm_;
    std::vector<uint8_t> winners_;
    std::vector<uint64_t> lane_outs_;
    std::vector<uint64_t> forwarded_;
};

/**
 * The bit-serial oracle's pool + activate step for one pixel of one
 * image over the whole stream: the windows' counts (APC stages) or
 * product streams (MUX stages) through the reference pooling twin of
 * @p spec — the Figure 8 selector, the signed APC mean, or the MUX
 * average drawing from @p pool_rng — then a scalar Btanh / Stanh from
 * its initial state. An fc pixel (Pool::None) feeds its one input to
 * the unit directly.
 */
sc::Bitstream
referencePixel(const PixelTile::Spec &spec, unsigned state_count,
               const uint16_t *const *cnt, const uint64_t *const *prod,
               sc::Xoshiro256ss *pool_rng, PhaseTimer &timer)
{
    using Pool = PixelTile::Pool;
    const size_t len = spec.n_cycles;
    const size_t fan = spec.pool == Pool::None ? 1 : 4;
    sc::Bitstream out;
    if (spec.btanh != nullptr) {
        std::vector<std::vector<uint16_t>> counts(fan);
        for (size_t w = 0; w < fan; ++w)
            counts[w].assign(cnt[w], cnt[w] + len);
        sc::Btanh unit(state_count, static_cast<unsigned>(spec.n_inputs));
        if (spec.pool == Pool::Average) {
            const std::vector<int> steps =
                blocks::binaryAveragePoolingSigned(counts, spec.n_inputs);
            timer.lap(timer.pooling);
            out = unit.transformSigned(steps);
        } else {
            if (spec.pool == Pool::Max) {
                counts[0] = blocks::binaryMaxPoolReference(
                    counts, spec.segment_len, 0, /*accumulate=*/true);
                timer.lap(timer.pooling);
            }
            out = unit.transform(counts[0]);
        }
    } else {
        std::vector<sc::Bitstream> streams(fan);
        for (size_t w = 0; w < fan; ++w) {
            streams[w].reset(len);
            std::copy(prod[w], prod[w] + (len + 63) / 64,
                      streams[w].mutableWords().begin());
        }
        if (spec.pool == Pool::Max) {
            const std::vector<sc::BitstreamView> views(streams.begin(),
                                                       streams.end());
            streams[0] = blocks::maxPoolStreamsReference(
                views, spec.segment_len, 0, /*accumulate=*/true);
        } else if (spec.pool == Pool::Average) {
            // Unlike the isolated Figure 14(b) study (operands uniform
            // over [-1,1]), trained-network streams sit near p=0.5
            // where the Figure 11 K/5 threshold would swamp the signal
            // with a constant positive bias; the classic midpoint
            // threshold is used for network inference.
            streams[0] = blocks::averagePooling(streams, *pool_rng);
        }
        if (spec.pool != Pool::None)
            timer.lap(timer.pooling);
        sc::Stanh fsm(state_count);
        out = fsm.transform(streams[0]);
    }
    timer.lap(timer.activation);
    return out;
}

/** Activation-unit sizing for one network layer. */
struct ActSizing
{
    unsigned k;   //!< FSM/counter state count
    double gain;  //!< realized activation gain g_sc: out ~ tanh(g_sc*s)
};

/**
 * Gain-matched activation sizing (see DESIGN.md, reconstruction note):
 * the state count is chosen so the unit realizes the activation gain
 * the float network was trained with, subject to a mixing-time clamp —
 * a saturating counter with step deviation sigma relaxes in ~(K/sigma)^2
 * cycles, which must fit several times into the bit-stream or the
 * output is transient-dominated. Residual gain mismatch is compensated
 * at the next layer's SNG programming (weight pre-scaling).
 *
 * The empirical equations (1)-(3) of Section 4.4 target the isolated
 * feature-extraction-block regime of Figure 14 (operands uniform over
 * [-1,1]); they are exercised there by the fig14 bench.
 */
ActSizing
gainMatchedSizing(blocks::FebKind kind, size_t n_inputs,
                  size_t pool_size, size_t length, double g_float)
{
    const double n = static_cast<double>(n_inputs);
    const double len = static_cast<double>(length);
    double sigma;     // per-cycle step standard deviation
    double gain_per_k; // realized gain per counter state
    if (!blocks::febUsesApc(kind)) {
        sigma = 1.0; // Stanh walks +/-1
        gain_per_k = 1.0 / (2.0 * n);
    } else if (kind == blocks::FebKind::ApcAvgBtanh && pool_size > 1) {
        sigma = std::sqrt(n) / 2.0; // 4-way averaged binary steps
        gain_per_k = 2.0 / n;
    } else {
        sigma = std::sqrt(n); // direct / max-pooled binary steps
        gain_per_k = 1.0 / (2.0 * n);
    }

    const double k_target = g_float / gain_per_k;
    const double k_max = sigma * std::sqrt(len / 8.0);
    ActSizing s;
    s.k = sc::nearestEvenState(std::min(k_target, k_max));
    s.gain = std::min(1.0, static_cast<double>(s.k) * gain_per_k);
    return s;
}

/**
 * Reject, at construction, an APC stage (or the output layer, which
 * runs the same fold) with more product lines than the carry-save fold
 * can count: on any cycle where all of them are 1 the fold would run
 * out of planes mid-forward, inside a pool worker.
 */
void
checkFoldCapacity(const nn::PlanStage &st, const char *kind)
{
    SCDCNN_ASSERT(st.fan_in + 1 <= sc::kMaxCarrySaveLines,
                  "layer %zu (%s): %zu APC inputs (fan-in + bias) exceed "
                  "the carry-save fold's %zu lines",
                  st.layer_index, kind, st.fan_in + 1,
                  sc::kMaxCarrySaveLines);
}

/**
 * Reject, at construction, a MUX stage with more inputs than its
 * uint16_t select indices can address: the first forward pass would
 * otherwise abort drawing the selects, inside a pool worker.
 */
void
checkMuxFanIn(const nn::PlanStage &st, const char *kind)
{
    SCDCNN_ASSERT(st.fan_in + 1 <= sc::kMaxMuxInputs,
                  "layer %zu (%s): %zu MUX inputs (fan-in + bias) exceed "
                  "the %zu-entry select range",
                  st.layer_index, kind, st.fan_in + 1, sc::kMaxMuxInputs);
}

} // namespace

ScNetwork::ScNetwork(const nn::Network &trained, ScNetworkConfig cfg,
                     uint64_t weight_seed)
    : cfg_(cfg),
      plan_(nn::deriveNetworkPlan(trained, cfg.input_c, cfg.input_h,
                                  cfg.input_w)),
      // The binary sibling backend reads the *unquantized* trained
      // weights: sign(w) of the SC-quantized copy below can differ
      // from sign(w) of the raw weight.
      binary_(trained, plan_)
{
    // Store the weights the way the hardware would: quantized per the
    // Section 5.2/5.3 storage scheme (grouping derived from the plan).
    nn::Network net = trained;
    nn::quantizeNetwork(net, cfg_.weight_bits);

    const size_t len = cfg_.bitstream_len;
    bias_line_ = sc::constantStream(true, len);
    sc::SngBank bank(weight_seed);

    // Size each hidden stage's activation unit to the gain the float
    // network was trained with; any shortfall (mixing-time clamp)
    // becomes a weight pre-scaling at the next layer. Layers sharing
    // (K, threshold) / (K, n_inputs) share one batched table through
    // the cache.
    const size_t n_stages = plan_.stages.size();
    layer_gain_.assign(n_stages, 1.0);
    layer_k_.assign(n_stages, 2);
    stanh_tables_.assign(n_stages, nullptr);
    btanh_tables_.assign(n_stages, nullptr);
    for (size_t l = 0; l < n_stages; ++l) {
        const nn::PlanStage &st = plan_.stages[l];
        const size_t n_inputs = st.fan_in + 1;
        const char *kind =
            st.kind == nn::StageOutline::Kind::Conv ? "conv" : "fc";
        if (blocks::febUsesApc(stageFebKind(l)))
            checkFoldCapacity(st, kind);
        else
            checkMuxFanIn(st, kind);
        ActSizing sizing =
            gainMatchedSizing(stageFebKind(l), n_inputs,
                              st.pooled ? 4 : 1, len, st.g_float);
        layer_k_[l] = sizing.k;
        layer_gain_[l] = std::min(1.0, sizing.gain / st.g_float);
        if (blocks::febUsesApc(stageFebKind(l)))
            btanh_tables_[l] = &fsm_tables_.btanh(
                layer_k_[l], static_cast<unsigned>(n_inputs));
        else
            stanh_tables_[l] = &fsm_tables_.stanh(layer_k_[l]);
    }
    checkFoldCapacity(plan_.output, "output fc");

    // Every filter's / neuron's streams are drawn in tap order — its
    // weight row in the layer's storage order ((channel, row, column)
    // for a conv filter, input order for a neuron), then the bias —
    // into one reused word buffer, then copied into the stage's
    // interleaved arena. MUX-based layers attenuate their features by
    // layer_gain_; the consuming layer's weight streams are programmed
    // at w/gain (saturating in the SNG — the pre-scaling of Section
    // 3.2), so the drift seen by its adder matches the float network
    // again. Biases are not attenuated and stay unscaled.
    std::vector<double> row_values;
    std::vector<uint64_t> row_words;
    const size_t row_stride = (len + 63) / 64;
    auto encode_rows = [&](const nn::PlanStage &st, double in_gain,
                           sc::InterleavedWeightArena &arena) {
        nn::Layer &layer = net.layer(st.layer_index);
        const std::vector<float> &w = *layer.weights();
        const std::vector<float> &bias = *layer.biases();
        arena.reset(st.out_c, st.fan_in + 1, len);
        for (size_t o = 0; o < st.out_c; ++o) {
            row_values.clear();
            for (size_t i = 0; i < st.fan_in; ++i)
                row_values.push_back(w[o * st.fan_in + i] / in_gain);
            row_values.push_back(bias[o]);
            row_words.resize(row_values.size() * row_stride);
            bank.bipolarInto(row_values, len, row_words.data(), row_stride);
            for (size_t tap = 0; tap <= st.fan_in; ++tap)
                arena.assign(o, tap,
                             sc::BitstreamView(
                                 row_words.data() + tap * row_stride, len));
        }
    };

    // Encode the hidden stages in plan order, each consuming the
    // previous stage's realized gain, then the binary output layer.
    double in_gain = 1.0;
    stages_.resize(n_stages);
    for (size_t l = 0; l < n_stages; ++l) {
        encode_rows(plan_.stages[l], in_gain, stages_[l]);
        in_gain = layer_gain_[l];
    }
    encode_rows(plan_.output, in_gain, out_);
}

ScNetwork::BatchStreamGrid
ScNetwork::encodeImagesBatch(std::span<const nn::Tensor> images,
                             std::span<const uint64_t> seeds,
                             ThreadPool &pool) const
{
    BatchStreamGrid grid;
    grid.c = plan_.in_c;
    grid.h = plan_.in_h;
    grid.w = plan_.in_w;
    grid.arena.reset(grid.c * grid.h * grid.w, images.size(),
                     cfg_.bitstream_len);
    parallelFor(pool, 0, images.size(), [&](size_t b) {
        const nn::Tensor &image = images[b];
        SCDCNN_ASSERT(image.channels() == plan_.in_c &&
                          image.height() == plan_.in_h &&
                          image.width() == plan_.in_w,
                      "expected a %zux%zux%zu image, got %zux%zux%zu",
                      plan_.in_c, plan_.in_h, plan_.in_w,
                      image.channels(), image.height(), image.width());
        const Clock::time_point t0 = Clock::now();
        sc::SngBank bank(seeds[b]);
        // Pixel values in [0,1] already lie inside the bipolar range;
        // they are encoded at face value so the SC network computes
        // the same function the float network was trained on. Pixel
        // i's stream lands directly in its arena slot (i, b), the
        // slots of one image being images.size() strides apart.
        const std::vector<double> pixels(image.data().begin(),
                                         image.data().end());
        bank.bipolarInto(pixels, cfg_.bitstream_len,
                         grid.arena.wordsAt(0, b),
                         images.size() * grid.arena.strideWords());
        emitPhase(obs::SpanName::Encode, nsSince(t0), 0);
    });
    return grid;
}

void
ScNetwork::initStageRun(StageRun &run, size_t stage,
                        const std::vector<uint64_t> &seeds) const
{
    const nn::PlanStage &st = plan_.stages[stage];
    const size_t B = seeds.size();
    const size_t n_pixels = st.flatOut();
    run.out.c = st.out_c;
    run.out.h = st.out_h;
    run.out.w = st.out_w;
    run.out.arena.reset(n_pixels, B, cfg_.bitstream_len);

    const blocks::FebKind kind = stageFebKind(stage);
    const bool use_apc = blocks::febUsesApc(kind);
    const bool use_max = blocks::febUsesMaxPool(kind);

    // Every per-site quantity, replicated per image at index
    // site * B + b and seeded from image b's own seed alone — so an
    // image's streams never depend on its batch-mates or the batch
    // size. Every generator is derived from its position: MUX selects
    // per (filter block, position, window) — shared by the block's
    // lanes, the way the blocked MUX kernel samples — and the
    // average-pooling MUX per pixel.
    run.fsm.assign(n_pixels * B,
                   use_apc ? btanh_tables_[stage]->initialState()
                           : stanh_tables_[stage]->initialState());
    // Figure 8 selectors: four window counters per (pixel, image),
    // zeroed, and the first segment forwarding window 0.
    run.pool_counters.assign(use_max ? n_pixels * B * 4 : 0, 0);
    run.pool_selected.assign(use_max ? n_pixels * B : 0, 0);
    run.sel_rng.clear();
    run.pool_rng.clear();
    if (!use_apc) {
        const size_t windows = st.pooled ? 4 : 1;
        const size_t n_sites =
            stages_[stage].groups() * st.out_h * st.out_w * windows;
        run.sel_rng.reserve(n_sites * B);
        for (size_t s = 0; s < n_sites; ++s)
            for (size_t b = 0; b < B; ++b)
                run.sel_rng.emplace_back(
                    siteSeed(seeds[b] ^ kSelectSalt, stage, s));
        if (st.pooled && !use_max) {
            run.pool_rng.reserve(n_pixels * B);
            for (size_t p = 0; p < n_pixels; ++p)
                for (size_t b = 0; b < B; ++b)
                    run.pool_rng.emplace_back(
                        siteSeed(seeds[b] ^ kPoolSalt, stage, p));
        }
    }
}

void
ScNetwork::runStageSegment(const BatchStreamGrid &in, size_t stage,
                           const SegRange &seg,
                           const std::vector<uint32_t> &active,
                           bool reference, StageRun &run,
                           ThreadPool &pool) const
{
    // An fc stage is a conv stage whose kernel covers its whole input
    // grid: one output position and one window (side 1), no pooling.
    const nn::PlanStage &st = plan_.stages[stage];
    const size_t side = st.pooled ? 2 : 1; // pooling window side
    const size_t windows = side * side;
    const size_t kh = st.in_h - side * st.out_h + 1;
    const size_t kw = st.in_w - side * st.out_w + 1;
    const size_t positions = st.out_h * st.out_w;
    const size_t n_inputs = st.fan_in + 1;
    const sc::InterleavedWeightArena &weights = stages_[stage];
    const size_t B = run.out.arena.images();
    const size_t n_active = active.size();

    const blocks::FebKind kind = stageFebKind(stage);
    const unsigned state_count = layer_k_[stage];
    const bool use_apc = blocks::febUsesApc(kind);
    const bool use_max = blocks::febUsesMaxPool(kind);
    const size_t n_groups = weights.groups();
    const size_t seg_words = seg.w1 - seg.w0;
    const size_t seg_stride = seg_words * 64;
    const size_t in_stride = in.arena.strideWords();

    // One (filter block, output position) pair per work item, covering
    // the whole active micro-batch: the block's weight words are loaded
    // once per segment word and folded against every active image's
    // input window before advancing (the weight-stationary inversion).
    // Contiguous chunks go to the pool workers, each with its own
    // reusable workspace; everything randomized is position-derived,
    // so the partition never changes the produced streams.
    // APC layers carry the inner products as count planes, written by
    // the fold straight into the pixel tile's pixel-minor layout: the
    // Figure 8 selector needs per-cycle counts only for the input it
    // forwards, and the tile's Btanh builds those from the winners'
    // plane bits (an fc unit's one input wins every group); the
    // average-pooled flush expands its windows' counts from the rows.
    // The Reference oracle keeps plain counts for its bit-serial
    // pooling and activation twins.
    const bool use_planes = use_apc && !reference;
    const size_t plane_cap = sc::planeCapForTaps(n_inputs);
    const auto mux_product = reference ? &sc::referenceMuxProductMulti
                                       : &sc::fusedMuxProductMulti;

    // Every item's inner products land in its own workspace slot (or
    // its tile pixels) until the tile holding its pixels flushes; the
    // Reference oracle pools each item on the spot, so it needs one
    // slot.
    const size_t slots = reference ? 1 : tileItems(n_active);
    const size_t counts_per_slot =
        use_apc && reference
            ? windows * n_active * sc::kFilterLanes * seg_stride
            : 0;
    const size_t products_per_slot =
        use_apc ? 0 : windows * n_active * sc::kFilterLanes * seg_words;
    const PixelTile::Spec tile_spec{
        .pool = !st.pooled ? PixelTile::Pool::None
                : use_max  ? PixelTile::Pool::Max
                           : PixelTile::Pool::Average,
        .btanh = btanh_tables_[stage],
        .stanh = stanh_tables_[stage],
        .n_inputs = n_inputs,
        .plane_cap = plane_cap,
        .segment_len = cfg_.segment_len,
        .c0 = seg.c0,
        .n_cycles = seg.n_cycles,
    };

    const size_t n_items = n_groups * positions;
    parallelForChunks(pool, 0, n_items, [&](size_t lo, size_t hi) {
        sc::BatchFusedWorkspace wsp;
        wsp.xs0.resize(n_inputs);
        wsp.xs0[n_inputs - 1] = bias_line_;
        wsp.x_strides.assign(n_inputs, in_stride);
        wsp.x_strides[n_inputs - 1] = 0; // shared bias line
        wsp.counts.resize(slots * counts_per_slot);
        wsp.products.resize(slots * products_per_slot);
        PixelTile tile(tile_spec, slots * sc::kFilterLanes * n_active);
        PhaseTimer timer;
        size_t slot = 0;
        size_t gathered = SIZE_MAX; // the (position, window) in wsp.xs0
        for (size_t item = lo; item < hi; ++item) {
            const size_t g = item / positions;
            const size_t q = item % positions;
            const size_t oy = q / st.out_w;
            const size_t ox = q % st.out_w;
            const sc::WeightBlockView block = weights.block(g);
            // The item's first tile pixel (plane-tile stages).
            const size_t pixel0 = slot * n_active * sc::kFilterLanes;
            uint16_t *const counts = wsp.counts.data() + slot * counts_per_slot;
            uint64_t *const products =
                wsp.products.data() + slot * products_per_slot;

            // The pooling windows' inner products of this filter
            // block, every lane and every active image.
            timer.start();
            for (size_t window = 0; window < windows; ++window) {
                // The window's kh x kw input patch, in the weights'
                // (channel, row, column) tap order. An fc stage's one
                // window is its whole input, gathered once per chunk.
                if (q * windows + window != gathered) {
                    const size_t cy = side * oy + window / side;
                    const size_t cx = side * ox + window % side;
                    size_t idx = 0;
                    for (size_t ci = 0; ci < st.in_c; ++ci)
                        for (size_t ky = 0; ky < kh; ++ky)
                            for (size_t kx = 0; kx < kw; ++kx)
                                wsp.xs0[idx++] =
                                    in.at(ci, cy + ky, cx + kx, 0);
                    gathered = q * windows + window;
                }

                if (use_planes) {
                    sc::fusedProductPlanesMultiBatch(
                        wsp.xs0, wsp.x_strides, active.data(), n_active,
                        block, /*approximate=*/true, seg.w0, seg.w1,
                        tile.planes(window, pixel0), plane_cap,
                        tile.pixelStride(), sc::kFilterLanes);
                } else if (use_apc) {
                    sc::referenceProductCountsMultiBatch(
                        wsp.xs0, wsp.x_strides, active.data(), n_active,
                        block, /*approximate=*/true, seg.w0, seg.w1,
                        counts +
                            window * n_active * sc::kFilterLanes * seg_stride,
                        seg_stride, sc::kFilterLanes * seg_stride);
                } else {
                    // MUX layers run the per-image kernel (the selects
                    // are per-image RNG sequences anyway); the image
                    // loop still re-reads the block's weight slice from
                    // cache.
                    for (size_t j = 0; j < n_active; ++j) {
                        const size_t img = active[j];
                        sc::Xoshiro256ss &sel =
                            run.sel_rng[(item * windows + window) * B + img];
                        sc::fillMuxSelects(n_inputs, seg.n_cycles, sel,
                                           wsp.selects);
                        sc::shiftViewsForImage(wsp.xs0, wsp.x_strides, img,
                                               wsp.xs_img);
                        mux_product(wsp.xs_img, block, wsp.selects, seg.w0,
                                    seg.w1,
                                    products + (window * n_active + j) *
                                                   sc::kFilterLanes *
                                                   seg_words,
                                    seg_words);
                    }
                }
            }
            timer.lap(timer.inner_product);

            // Pool and activate every (lane, image) pixel of the item:
            // the Reference oracle on the spot from its plain counts or
            // product streams, the fused path through the tile (an APC
            // pixel by its plane-tile index, a MUX one by its product
            // words), which runs them with the pixels of the
            // neighbouring items, carrying each pixel's selector
            // counters, MUX generator and FSM state across segments.
            // Max pooling uses the accumulative (non-resetting) reading
            // of the Figure 8 counters: inside a trained network the
            // candidate inner products are separated by O(1/N) in
            // stream value, so per-segment counts cannot distinguish
            // them, but the accumulated counts converge on the true
            // maximum within a few hundred cycles (see DESIGN.md
            // reconstruction notes).
            for (size_t f = 0; f < block.lanes; ++f) {
                const size_t p = (g * sc::kFilterLanes + f) * positions + q;
                for (size_t j = 0; j < n_active; ++j) {
                    const size_t img = active[j];
                    const size_t s = p * B + img;
                    uint64_t *const out =
                        reference ? nullptr
                                  : run.out.arena.wordsAt(p, img) + seg.w0;
                    const blocks::MaxPoolCarry max =
                        use_max ? blocks::MaxPoolCarry{
                                      &run.pool_counters[s * 4],
                                      &run.pool_selected[s]}
                                : blocks::MaxPoolCarry{};
                    if (use_planes) {
                        tile.add(pixel0 + j * sc::kFilterLanes + f, out,
                                 &run.fsm[s], max);
                        continue;
                    }
                    // Window w of lane f, image j: the workspace's
                    // [window][image][lane] row.
                    const uint16_t *cnt[4];
                    const uint64_t *words[4];
                    for (size_t w = 0; w < windows; ++w) {
                        const size_t row =
                            (w * n_active + j) * sc::kFilterLanes + f;
                        if (use_apc)
                            cnt[w] = counts + row * seg_stride;
                        else
                            words[w] = products + row * seg_words;
                    }
                    sc::Xoshiro256ss *const mux_avg =
                        run.pool_rng.empty() ? nullptr : &run.pool_rng[s];
                    if (reference) {
                        run.out.arena.assign(
                            p, img,
                            referencePixel(tile_spec, state_count, cnt,
                                           words, mux_avg, timer));
                        continue;
                    }
                    tile.add(words, out, &run.fsm[s], max, mux_avg);
                }
            }
            if (++slot == slots) {
                tile.flush(timer);
                slot = 0;
            }
        }
        tile.flush(timer);
        timer.flush(seg.w0);
    });
}

void
ScNetwork::runOutputSegmentBatch(const std::vector<sc::BitstreamView> &in0,
                                 const std::vector<size_t> &in_strides,
                                 const SegRange &seg,
                                 const std::vector<uint32_t> &active,
                                 bool reference, OutputBatchRun &run) const
{
    const Clock::time_point t0 = Clock::now();
    const size_t B = run.consumed.size();
    const size_t n_active = active.size();
    const size_t n_words = seg.w1 - seg.w0;
    const size_t seg_stride = n_words * 64;
    const size_t n_pixels = n_active * sc::kFilterLanes;

    // The output layer is an APC inner product whose counts feed an
    // accumulator instead of a Btanh: each class block's approximate
    // counts for every active image come from one weight-stationary
    // batch call, and the accumulator de-randomizes them into the
    // per-(class, image) running sums (score = sum of bipolar sums).
    // The fused fold writes count planes, a one-input tile of the
    // (image, class lane) pixels whose segment sums come from plane
    // popcounts (sc::simd::tileCountSums; the fold leaves a partial
    // tail word's pad cycles zero); the Reference oracle sums its plain
    // counts.
    sc::simd::PlaneTile tile{.n_inputs = 1,
                             .n_words = n_words,
                             .plane_cap = sc::planeCapForTaps(in0.size()),
                             .pixel_stride = (n_pixels + 15) / 16 * 16,
                             .parity = true};
    std::vector<uint64_t> planes(
        reference ? 0 : n_words * (tile.plane_cap + 1) * tile.pixel_stride);
    std::vector<uint16_t> counts(reference ? n_pixels * seg_stride : 0);
    std::vector<uint64_t> sums(n_pixels);
    tile.planes = planes.data();
    for (size_t g = 0; g < out_.groups(); ++g) {
        const sc::WeightBlockView block = out_.block(g);
        if (reference) {
            sc::referenceProductCountsMultiBatch(
                in0, in_strides, active.data(), n_active, block,
                /*approximate=*/true, seg.w0, seg.w1, counts.data(),
                seg_stride, sc::kFilterLanes * seg_stride);
            for (size_t px = 0; px < n_pixels; ++px)
                sums[px] = std::accumulate(
                    counts.data() + px * seg_stride,
                    counts.data() + px * seg_stride + seg.n_cycles,
                    uint64_t{0});
        } else {
            sc::fusedProductPlanesMultiBatch(
                in0, in_strides, active.data(), n_active, block,
                /*approximate=*/true, seg.w0, seg.w1, planes.data(),
                tile.plane_cap, tile.pixel_stride, sc::kFilterLanes);
            sc::simd::tileCountSums(tile, n_pixels, sums.data());
        }
        for (size_t j = 0; j < n_active; ++j)
            for (size_t f = 0; f < block.lanes; ++f)
                run.acc[(g * sc::kFilterLanes + f) * B + active[j]] +=
                    sums[j * sc::kFilterLanes + f];
    }
    for (const uint32_t img : active)
        run.consumed[img] += seg.n_cycles;
    emitPhase(obs::SpanName::Output, nsSince(t0), seg.w0);
}

std::vector<size_t>
ScNetwork::forwardStreams(std::span<const nn::Tensor> images,
                          std::span<const uint64_t> seeds,
                          const PredictOptions &opts, ThreadPool &pool,
                          std::span<ForwardInfo> infos,
                          std::span<const CancelSignal *const> cancels)
    const
{
    const EngineMode mode = opts.mode;
    const bool reference = mode == EngineMode::Reference;
    const size_t B = images.size();
    const size_t len = cfg_.bitstream_len;
    const size_t n_words = (len + 63) / 64;
    const bool poll_cancel =
        std::any_of(cancels.begin(), cancels.end(),
                    [](const CancelSignal *c) { return c != nullptr; });

    // Segment rule, from what the call carries (results are bit-exact
    // for every segment size, so this only trades speed for
    // checkpoints):
    //  - Reference runs whole streams (the bit-serial oracle's form);
    //  - Progressive, or any cancel signal, needs mid-stream
    //    checkpoints — early exit and cancellation act only at segment
    //    boundaries — so it takes the stream_segment_words grid, whose
    //    whole-stream setting falls back to a default granularity;
    //  - everything else runs whole streams, so each weight block
    //    streams once per call.
    size_t seg_words = n_words;
    if (!reference && (mode == EngineMode::Progressive || poll_cancel))
        seg_words = std::min(n_words, cfg_.stream_segment_words != 0
                                          ? cfg_.stream_segment_words
                                          : kCheckpointFallbackSegmentWords);

    // Per-stage carried state, seeded positionally per stage index
    // (stage l of image b gets seeds[b] ^ 0x1111*(l+1)).
    const size_t n_stages = stages_.size();
    BatchStreamGrid x = encodeImagesBatch(images, seeds, pool);
    std::vector<StageRun> runs(n_stages);
    OutputBatchRun out;
    std::vector<uint64_t> stage_seeds(B);
    for (size_t l = 0; l < n_stages; ++l) {
        for (size_t b = 0; b < B; ++b)
            stage_seeds[b] = seeds[b] ^ (0x1111ULL * (l + 1));
        initStageRun(runs[l], l, stage_seeds);
    }
    const size_t n_classes = out_.filters();
    out.acc.assign(n_classes * B, 0);
    out.consumed.assign(B, 0);

    // The output layer reads the last stage's grid (the image itself
    // for a net without hidden stages) flattened, then the shared bias
    // line, as image-0 views plus per-tap image word strides (the
    // batch-kernel operand form).
    const sc::BatchStreamArena &last =
        n_stages > 0 ? runs.back().out.arena : x.arena;
    std::vector<sc::BitstreamView> out_in;
    for (size_t i = 0; i < last.count(); ++i)
        out_in.push_back(last.view(i, 0));
    std::vector<size_t> out_strides(out_in.size(), last.strideWords());
    out_in.push_back(bias_line_);
    out_strides.push_back(0);

    std::vector<uint32_t> active(B);
    for (size_t b = 0; b < B; ++b)
        active[b] = static_cast<uint32_t>(b);
    std::vector<uint8_t> exited(B, 0);
    std::vector<uint8_t> cancelled(B, 0);

    for (size_t w0 = 0; w0 < n_words && !active.empty();
         w0 += seg_words) {
        SegRange seg;
        seg.w0 = w0;
        seg.w1 = std::min(w0 + seg_words, n_words);
        seg.c0 = w0 * 64;
        seg.n_cycles = std::min(seg.w1 * 64, len) - seg.c0;

        for (size_t l = 0; l < n_stages; ++l)
            runStageSegment(l == 0 ? x : runs[l - 1].out, l, seg, active,
                            reference, runs[l], pool);
        runOutputSegmentBatch(out_in, out_strides, seg, active, reference,
                              out);

        // Per-image checkpoints, after the segment's work has been
        // accumulated so a partial result is well-formed over the
        // consumed prefix. Progressive precision: an image whose class
        // decision is stable by the margin cannot plausibly flip in
        // the remaining segments, so it leaves the active set (its
        // carried state freezes in place, the remaining images are
        // undisturbed) — the batch-compaction rule. Cooperative
        // cancellation rides the same compaction: a cancelled image
        // leaves at the boundary with its partial result frozen, so
        // its batch-mates' streams are bit-identical to a run without
        // the cancellation.
        if (seg.w1 < n_words &&
            (mode == EngineMode::Progressive || poll_cancel)) {
            const size_t before = active.size();
            size_t kept = 0;
            for (size_t j = 0; j < active.size(); ++j) {
                const uint32_t img = active[j];
                if (poll_cancel && cancels[img] != nullptr &&
                    cancels[img]->cancelled()) {
                    cancelled[img] = 1;
                    continue;
                }
                bool exit_now = false;
                if (mode == EngineMode::Progressive &&
                    out.consumed[img] >= opts.progressive_min_bits) {
                    uint64_t best = 0, second = 0;
                    for (size_t o = 0; o < n_classes; ++o) {
                        const uint64_t v = out.acc[o * B + img];
                        if (v > best) {
                            second = best;
                            best = v;
                        } else if (v > second) {
                            second = v;
                        }
                    }
                    const double margin =
                        2.0 *
                        (static_cast<double>(best) -
                         static_cast<double>(second)) /
                        static_cast<double>(out.consumed[img]);
                    exit_now = margin >= opts.progressive_margin;
                }
                if (exit_now) {
                    exited[img] = 1;
                    if (obs::armed())
                        obs::TraceRecorder::instance().instant(
                            obs::SpanName::EarlyExit, 0, 0,
                            out.consumed[img], seg.w1);
                } else {
                    active[kept++] = img;
                }
            }
            active.resize(kept);
            if (kept < before && obs::armed())
                obs::TraceRecorder::instance().instant(
                    obs::SpanName::BatchCompact, 0, 0, kept, before);
        }
    }

    std::vector<size_t> preds(B);
    const auto n_inputs = static_cast<double>(out_.taps());
    for (size_t b = 0; b < B; ++b) {
        const auto consumed = static_cast<double>(out.consumed[b]);
        std::vector<double> scores(n_classes);
        for (size_t o = 0; o < n_classes; ++o)
            scores[o] = (2.0 * static_cast<double>(out.acc[o * B + b]) -
                         n_inputs * consumed) /
                        consumed;
        preds[b] = static_cast<size_t>(
            std::max_element(scores.begin(), scores.end()) -
            scores.begin());
        if (!infos.empty()) {
            infos[b].scores = std::move(scores);
            infos[b].effective_bits = out.consumed[b];
            infos[b].early_exit = exited[b] != 0;
            infos[b].cancelled = cancelled[b] != 0;
        }
    }
    return preds;
}

size_t
ScNetwork::predictBinary(const nn::Tensor &image, ForwardInfo *info) const
{
    std::vector<double> scores;
    const size_t pred = binary_.predict(image, &scores);
    if (info != nullptr) {
        info->scores = std::move(scores);
        info->effective_bits = 1;
        info->early_exit = false;
        info->cancelled = false;
    }
    return pred;
}

size_t
ScNetwork::predict(const nn::Tensor &image, uint64_t seed,
                   ForwardInfo *info) const
{
    return predictWith(image, seed, defaultOptions(), info);
}

size_t
ScNetwork::predictWith(const nn::Tensor &image, uint64_t seed,
                       const PredictOptions &opts, ForwardInfo *info) const
{
    if (opts.mode == EngineMode::Binary)
        return predictBinary(image, info);
    const CancelSignal *const cancel = opts.cancel;
    return forwardStreams(
        {&image, 1}, {&seed, 1}, opts, ThreadPool::global(),
        info != nullptr ? std::span<ForwardInfo>(info, 1)
                        : std::span<ForwardInfo>(),
        cancel != nullptr ? std::span<const CancelSignal *const>(&cancel, 1)
                          : std::span<const CancelSignal *const>())[0];
}

std::vector<size_t>
ScNetwork::forwardBatch(const std::vector<nn::Tensor> &images,
                        uint64_t seed, ThreadPool *pool) const
{
    return forwardBatch(images, seed, defaultOptions(), pool, nullptr);
}

std::vector<size_t>
ScNetwork::forwardBatch(const std::vector<nn::Tensor> &images,
                        uint64_t seed, const PredictOptions &opts,
                        ThreadPool *pool,
                        std::vector<ForwardInfo> *infos) const
{
    std::vector<uint64_t> seeds(images.size());
    for (size_t i = 0; i < images.size(); ++i)
        seeds[i] = seed + i * 7919;
    return forwardBatch(images, seeds, opts, pool, infos);
}

std::vector<size_t>
ScNetwork::forwardBatch(const std::vector<nn::Tensor> &images,
                        const std::vector<uint64_t> &seeds,
                        const PredictOptions &opts, ThreadPool *pool,
                        std::vector<ForwardInfo> *infos,
                        const std::vector<const CancelSignal *> *cancels)
    const
{
    SCDCNN_ASSERT(seeds.size() == images.size(),
                  "forwardBatch: one seed per image");
    SCDCNN_ASSERT(cancels == nullptr ||
                      cancels->size() == images.size(),
                  "forwardBatch: one cancel signal per image");
    if (infos != nullptr)
        infos->assign(images.size(), ForwardInfo{});
    if (images.empty())
        return {};
    ThreadPool &workers = pool != nullptr ? *pool : ThreadPool::global();
    if (opts.mode == EngineMode::Binary) {
        // The binary backend is a separate, deterministic per-image
        // pass, so its batch is a plain fan-out over the pool.
        std::vector<size_t> preds(images.size());
        parallelFor(workers, 0, images.size(), [&](size_t i) {
            preds[i] = predictBinary(
                images[i], infos != nullptr ? &(*infos)[i] : nullptr);
        });
        return preds;
    }
    return forwardStreams(
        images, seeds, opts, workers,
        infos != nullptr ? std::span<ForwardInfo>(*infos)
                         : std::span<ForwardInfo>(),
        cancels != nullptr ? std::span<const CancelSignal *const>(*cancels)
                           : std::span<const CancelSignal *const>());
}
double
ScNetwork::errorRate(const nn::Dataset &ds, size_t max_images,
                     uint64_t seed, ThreadPool *pool) const
{
    const size_t n = std::min(ds.size(), max_images);
    SCDCNN_ASSERT(n > 0, "empty SC evaluation set");
    // One seed schedule for all batched prediction: forwardBatch's.
    // An error rate is therefore reproducible from the batch
    // predictions at the same seed.
    std::vector<nn::Tensor> images;
    images.reserve(n);
    for (size_t i = 0; i < n; ++i)
        images.push_back(ds.samples[i].image);
    const std::vector<size_t> preds = forwardBatch(images, seed, pool);
    size_t wrong = 0;
    for (size_t i = 0; i < n; ++i)
        if (preds[i] != ds.samples[i].label)
            ++wrong;
    return static_cast<double>(wrong) / static_cast<double>(n);
}

} // namespace core
} // namespace scdcnn
