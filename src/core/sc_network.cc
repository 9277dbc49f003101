#include "core/sc_network.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "blocks/activation.h"
#include "blocks/feature_block.h"
#include "blocks/pooling.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "nn/quantize.h"
#include "obs/trace.h"
#include "sc/btanh.h"
#include "sc/fused.h"
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

/** parallelForChunks on @p pool, or on the global pool when null. */
void
forChunks(ThreadPool *pool, size_t n,
          const std::function<void(size_t, size_t)> &chunk)
{
    if (pool != nullptr)
        parallelForChunks(*pool, 0, n, chunk);
    else
        parallelForChunks(0, n, chunk);
}

/** parallelFor on @p pool, or on the global pool when null. */
void
forEach(ThreadPool *pool, size_t n, const std::function<void(size_t)> &body)
{
    if (pool != nullptr)
        parallelFor(*pool, 0, n, body);
    else
        parallelFor(0, n, body);
}

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

/**
 * The bit-serial oracle's pool + activate step for one APC pixel of
 * one image: the four windows' whole-stream counts through the
 * reference pooling twin, then a scalar Btanh from its initial state.
 */
sc::Bitstream
referenceApcPixel(const uint16_t *const *cnt, size_t len, bool use_max,
                  size_t segment_len, unsigned state_count,
                  unsigned n_inputs, PhaseTimer &timer)
{
    std::vector<std::vector<uint16_t>> counts(4);
    for (size_t w = 0; w < 4; ++w)
        counts[w].assign(cnt[w], cnt[w] + len);
    sc::Btanh unit(state_count, n_inputs);
    sc::Bitstream out;
    if (use_max) {
        const std::vector<uint16_t> pooled = blocks::binaryMaxPoolReference(
            counts, segment_len, 0, /*accumulate=*/true);
        timer.lap(timer.pooling);
        out = unit.transform(pooled);
    } else {
        const std::vector<int> steps =
            blocks::binaryAveragePoolingSigned(counts, n_inputs);
        timer.lap(timer.pooling);
        out = unit.transformSigned(steps);
    }
    timer.lap(timer.activation);
    return out;
}

/**
 * The bit-serial oracle's pool + activate step for one MUX pixel of
 * one image: the four windows' product streams through the reference
 * max selector or the MUX average (drawing from @p pool_rng), then a
 * scalar Stanh from its initial state.
 */
sc::Bitstream
referenceMuxPixel(const uint64_t *const *prod, size_t len, bool use_max,
                  size_t segment_len, unsigned state_count,
                  sc::Xoshiro256ss *pool_rng, PhaseTimer &timer)
{
    sc::Bitstream pooled;
    if (use_max) {
        std::vector<sc::BitstreamView> views;
        for (size_t w = 0; w < 4; ++w)
            views.emplace_back(prod[w], len);
        pooled = blocks::maxPoolStreamsReference(views, segment_len, 0,
                                                 /*accumulate=*/true);
    } else {
        // Unlike the isolated Figure 14(b) study (operands uniform
        // over [-1,1]), trained-network streams sit near p=0.5 where
        // the Figure 11 K/5 threshold would swamp the signal with a
        // constant positive bias; the classic midpoint threshold is
        // used for network inference.
        std::vector<sc::Bitstream> streams(4);
        for (size_t w = 0; w < 4; ++w) {
            streams[w].reset(len);
            std::copy(prod[w], prod[w] + (len + 63) / 64,
                      streams[w].mutableWords().begin());
        }
        pooled = blocks::averagePooling(streams, *pool_rng);
    }
    timer.lap(timer.pooling);
    sc::Stanh fsm(state_count);
    sc::Bitstream out = fsm.transform(pooled);
    timer.lap(timer.activation);
    return out;
}

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
        size_t plane_cap = 0;   //!< APC max: count planes per word
        size_t segment_len = 0; //!< Figure 8 pooling segment c
        size_t c0 = 0;          //!< segment's first absolute cycle
        size_t n_cycles = 0;    //!< segment length in cycles
    };

    PixelTile(const Spec &spec, size_t capacity) : spec_(spec)
    {
        // One pooled slice per tile entry, in the form the layer's
        // activation unit reads: counts, signed steps or packed words.
        const size_t words = (spec_.n_cycles + 63) / 64;
        const bool apc = spec_.btanh != nullptr;
        if (apc && spec_.pool == Pool::Max) {
            pooled_.resize(capacity * words * 64);
            for (size_t e = 0; e < capacity; ++e)
                pooled_ptrs_.push_back(pooled_.data() + e * words * 64);
        } else if (apc && spec_.pool == Pool::Average) {
            steps_.resize(capacity * words * 64);
            for (size_t e = 0; e < capacity; ++e)
                step_ptrs_.push_back(steps_.data() + e * words * 64);
        } else if (!apc && spec_.pool != Pool::None) {
            pooled_words_.resize(capacity * words);
            for (size_t e = 0; e < capacity; ++e)
                pooled_word_ptrs_.push_back(pooled_words_.data() +
                                            e * words);
        }
    }

    /** Register a pixel read as count sequences (APC average pooling,
     *  APC fc): fan() inputs at @p in. */
    void add(const uint16_t *const *in, uint64_t *out, uint16_t *fsm)
    {
        counts_.insert(counts_.end(), in, in + fan());
        outs_.push_back(out);
        fsm_.push_back(fsm);
    }

    /** Register a pixel read as packed words — count planes (APC max
     *  pooling) or product streams (MUX layers) — with its selector
     *  state (max pooling) or MUX generator (MUX average pooling). */
    void add(const uint64_t *const *in, uint64_t *out, uint16_t *fsm,
             blocks::MaxPoolCarryState *max = nullptr,
             sc::Xoshiro256ss *rng = nullptr)
    {
        words_.insert(words_.end(), in, in + fan());
        max_.push_back(max);
        rng_.push_back(rng);
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
            if (spec_.pool == Pool::Max) {
                // One call pools the whole tile: the Figure 8 chunk
                // walk depends only on the segment range, so every
                // pixel shares it.
                blocks::binaryMaxPoolPlanesBatch(
                    words_.data(), n, 4, spec_.plane_cap, /*parity=*/true,
                    spec_.c0, len, spec_.segment_len, /*accumulate=*/true,
                    max_.data(), pooled_ptrs_.data());
                timer.lap(timer.pooling);
                spec_.btanh->transformWordsBatch(pooled_ptrs_.data(), len,
                                                 outs_.data(),
                                                 fsm_.data(), n);
            } else if (spec_.pool == Pool::Average) {
                for (size_t e = 0; e < n; ++e)
                    blocks::binaryAveragePoolingSignedRange(
                        counts_.data() + 4 * e, 4, spec_.n_inputs, len,
                        step_ptrs_[e]);
                timer.lap(timer.pooling);
                spec_.btanh->transformSignedWordsBatch(
                    step_ptrs_.data(), len, outs_.data(), fsm_.data(), n);
            } else {
                spec_.btanh->transformWordsBatch(counts_.data(), len,
                                                 outs_.data(),
                                                 fsm_.data(), n);
            }
        } else if (spec_.pool != Pool::None) {
            for (size_t e = 0; e < n; ++e) {
                if (spec_.pool == Pool::Max)
                    blocks::maxPoolStreamsRange(
                        words_.data() + 4 * e, 4, spec_.c0, len,
                        spec_.segment_len, /*accumulate=*/true, *max_[e],
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
        counts_.clear();
        words_.clear();
        max_.clear();
        rng_.clear();
        outs_.clear();
        fsm_.clear();
    }

  private:
    /** Window inputs per pixel. */
    size_t fan() const { return spec_.pool == Pool::None ? 1 : 4; }

    Spec spec_;
    // The registered pixels: fan() inputs each (counts or words, by
    // the layer kind), then one state / output pointer each.
    std::vector<const uint16_t *> counts_;
    std::vector<const uint64_t *> words_;
    std::vector<blocks::MaxPoolCarryState *> max_;
    std::vector<sc::Xoshiro256ss *> rng_;
    std::vector<uint64_t *> outs_;
    std::vector<uint16_t *> fsm_;
    // Pooled slices, one per entry of a full tile.
    std::vector<uint16_t> pooled_;
    std::vector<int> steps_;
    std::vector<uint64_t> pooled_words_;
    std::vector<uint16_t *> pooled_ptrs_;
    std::vector<int *> step_ptrs_;
    std::vector<uint64_t *> pooled_word_ptrs_;
};

} // namespace

namespace {

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

    // Every filter's / neuron's streams are drawn in tap order into
    // one reused word buffer, then copied into their storage layout.
    std::vector<double> row_values;
    std::vector<uint64_t> row_words;
    const size_t row_stride = (len + 63) / 64;
    auto encode_row = [&]() {
        row_words.resize(row_values.size() * row_stride);
        bank.bipolarInto(row_values, len, row_words.data(), row_stride);
    };
    auto row_view = [&](size_t tap) {
        return sc::BitstreamView(row_words.data() + tap * row_stride, len);
    };

    // MUX-based layers attenuate their features by layer_gain_; the
    // consuming layer's weight streams are programmed at w/gain
    // (saturating in the SNG — the pre-scaling of Section 3.2), so the
    // drift seen by its adder matches the float network again. Biases
    // are not attenuated and stay unscaled.
    auto encode_conv = [&](const nn::ConvLayer &conv, double in_gain,
                           ConvWeightStreams &out) {
        out.c_in = conv.cIn();
        out.c_out = conv.cOut();
        out.k = conv.kernel();
        out.n_per_filter = out.c_in * out.k * out.k + 1;
        out.blocked.reset(out.c_out, out.n_per_filter, len);
        for (size_t co = 0; co < out.c_out; ++co) {
            row_values.clear();
            for (size_t ci = 0; ci < out.c_in; ++ci)
                for (size_t ky = 0; ky < out.k; ++ky)
                    for (size_t kx = 0; kx < out.k; ++kx)
                        row_values.push_back(
                            conv.weightAt(co, ci, ky, kx) / in_gain);
            row_values.push_back(conv.biasAt(co));
            encode_row();
            for (size_t tap = 0; tap < out.n_per_filter; ++tap)
                out.blocked.assign(co, tap, row_view(tap));
        }
    };
    // Draws an fc layer's streams in (neuron, input) order, bias last,
    // handing each to put(neuron, tap, stream view).
    auto encode_fc = [&](const nn::FullyConnected &fc, double in_gain,
                         const auto &put) {
        for (size_t o = 0; o < fc.nOut(); ++o) {
            row_values.clear();
            for (size_t i = 0; i < fc.nIn(); ++i)
                row_values.push_back(fc.weightAt(o, i) / in_gain);
            row_values.push_back(fc.biasAt(o));
            encode_row();
            for (size_t i = 0; i <= fc.nIn(); ++i)
                put(o, i, row_view(i));
        }
    };

    // Encode the hidden stages in plan order (convs precede fcs by
    // the grammar), each consuming the previous stage's realized
    // gain, then the binary output layer.
    double in_gain = 1.0;
    for (size_t l = 0; l < n_stages; ++l) {
        const nn::PlanStage &st = plan_.stages[l];
        if (st.kind == nn::StageOutline::Kind::Conv) {
            convs_.emplace_back();
            encode_conv(dynamic_cast<const nn::ConvLayer &>(
                            net.layer(st.layer_index)),
                        in_gain, convs_.back());
        } else {
            const auto &fc = dynamic_cast<const nn::FullyConnected &>(
                net.layer(st.layer_index));
            FcWeightStreams &out = fcs_.emplace_back();
            out.n_in = fc.nIn();
            out.n_out = fc.nOut();
            out.blocked.reset(out.n_out, out.n_in + 1, len);
            encode_fc(fc, in_gain,
                      [&](size_t o, size_t i, sc::BitstreamView s) {
                          out.blocked.assign(o, i, s);
                      });
        }
        in_gain = layer_gain_[l];
    }
    const auto &fc = dynamic_cast<const nn::FullyConnected &>(
        net.layer(plan_.output.layer_index));
    out_.n_in = fc.nIn();
    out_.n_out = fc.nOut();
    out_.arena.reset(out_.n_out * (out_.n_in + 1), len);
    encode_fc(fc, in_gain, [&](size_t o, size_t i, sc::BitstreamView s) {
        std::copy(s.words, s.words + row_stride,
                  out_.arena.wordsAt(o * (out_.n_in + 1) + i));
    });
}

ScNetwork::BatchStreamGrid
ScNetwork::encodeImagesBatch(std::span<const nn::Tensor> images,
                             std::span<const uint64_t> seeds,
                             ThreadPool *pool) const
{
    BatchStreamGrid grid;
    grid.c = plan_.in_c;
    grid.h = plan_.in_h;
    grid.w = plan_.in_w;
    grid.arena.reset(grid.c * grid.h * grid.w, images.size(),
                     cfg_.bitstream_len);
    forEach(pool, images.size(), [&](size_t b) {
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
ScNetwork::initConvBatchRun(ConvBatchRun &run, const BatchStreamGrid &in,
                            const ConvWeightStreams &weights,
                            size_t layer_idx,
                            const std::vector<uint64_t> &seeds) const
{
    const size_t B = seeds.size();
    const size_t k = weights.k;
    const size_t conv_h = in.h - k + 1;
    const size_t conv_w = in.w - k + 1;
    SCDCNN_ASSERT(conv_h % 2 == 0 && conv_w % 2 == 0,
                  "conv output not poolable");
    run.out.c = weights.c_out;
    run.out.h = conv_h / 2;
    run.out.w = conv_w / 2;
    run.out.arena.reset(run.out.c * run.out.h * run.out.w, B,
                        cfg_.bitstream_len);

    const blocks::FebKind kind = stageFebKind(layer_idx);
    const bool use_apc = blocks::febUsesApc(kind);
    const bool use_max = blocks::febUsesMaxPool(kind);
    const size_t n_pixels = run.out.c * run.out.h * run.out.w;

    // Every per-site quantity, replicated per image at index
    // site * B + b and seeded from image b's own seed alone — so an
    // image's streams never depend on its batch-mates or the batch
    // size. Every generator is derived from its position: MUX selects
    // per (filter block, position, window) — shared by the block's
    // lanes, the way the blocked MUX kernel samples — and the
    // average-pooling MUX per pixel.
    run.fsm.assign(n_pixels * B,
                   use_apc ? btanh_tables_[layer_idx]->initialState()
                           : stanh_tables_[layer_idx]->initialState());
    run.pool.clear();
    if (use_max) {
        run.pool.resize(n_pixels * B);
        for (auto &st : run.pool)
            st.reset(4, 0);
    }
    run.sel_rng.clear();
    run.pool_rng.clear();
    if (!use_apc) {
        const size_t positions = run.out.h * run.out.w;
        const size_t n_sites = weights.blocked.groups() * positions * 4;
        run.sel_rng.reserve(n_sites * B);
        for (size_t s = 0; s < n_sites; ++s)
            for (size_t b = 0; b < B; ++b)
                run.sel_rng.emplace_back(
                    siteSeed(seeds[b] ^ kSelectSalt, layer_idx, s));
        if (!use_max) {
            run.pool_rng.reserve(n_pixels * B);
            for (size_t p = 0; p < n_pixels; ++p)
                for (size_t b = 0; b < B; ++b)
                    run.pool_rng.emplace_back(
                        siteSeed(seeds[b] ^ kPoolSalt, layer_idx, p));
        }
    }
}

void
ScNetwork::initFcBatchRun(FcBatchRun &run, const FcWeightStreams &weights,
                          size_t layer_idx,
                          const std::vector<uint64_t> &seeds) const
{
    const size_t B = seeds.size();
    run.out.reset(weights.n_out, B, cfg_.bitstream_len);
    const bool use_apc = blocks::febUsesApc(stageFebKind(layer_idx));
    run.fsm.assign(weights.n_out * B,
                   use_apc ? btanh_tables_[layer_idx]->initialState()
                           : stanh_tables_[layer_idx]->initialState());
    run.sel_rng.clear();
    if (!use_apc) {
        const size_t n_groups = weights.blocked.groups();
        run.sel_rng.reserve(n_groups * B);
        for (size_t g = 0; g < n_groups; ++g)
            for (size_t b = 0; b < B; ++b)
                run.sel_rng.emplace_back(
                    siteSeed(seeds[b] ^ kSelectSalt, layer_idx, g));
    }
}

void
ScNetwork::runConvLayerSegmentBatch(const BatchStreamGrid &in,
                                    const ConvWeightStreams &weights,
                                    size_t layer_idx, const SegRange &seg,
                                    const std::vector<uint32_t> &active,
                                    bool reference, ConvBatchRun &run,
                                    ThreadPool *pool) const
{
    const size_t k = weights.k;
    const size_t out_w = run.out.w;
    const size_t n_inputs = weights.n_per_filter;
    const size_t B = run.out.arena.images();
    const size_t n_active = active.size();
    const size_t len = cfg_.bitstream_len;

    const blocks::FebKind kind = stageFebKind(layer_idx);
    const unsigned state_count = layer_k_[layer_idx];
    const bool use_apc = blocks::febUsesApc(kind);
    const bool use_max = blocks::febUsesMaxPool(kind);
    const size_t positions = run.out.h * run.out.w;
    const size_t n_groups = weights.blocked.groups();
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
    // Max-pooled APC layers carry the inner products as count planes:
    // the Figure 8 selector needs per-cycle counts only for the input
    // it forwards, so the kernel skips the plane-to-count transpose
    // for the losing windows (binaryMaxPoolPlanesBatch recovers the
    // winner's counts on demand). The Reference oracle keeps plain
    // counts for its bit-serial pooling twin.
    const bool use_planes = use_apc && use_max && !reference;
    const size_t plane_cap = sc::planeCapForTaps(n_inputs);
    const size_t plane_lane_stride = seg_words * (plane_cap + 1);
    const size_t plane_image_stride = sc::kFilterLanes * plane_lane_stride;
    const auto product_counts = reference
                                    ? &sc::referenceProductCountsMultiBatch
                                    : &sc::fusedProductCountsMultiBatch;
    const auto mux_product = reference ? &sc::referenceMuxProductMulti
                                       : &sc::fusedMuxProductMulti;

    // Every item's inner products land in its own workspace slot until
    // the tile holding its pixels flushes; the Reference oracle pools
    // each item on the spot, so it needs one slot.
    const size_t slots = reference ? 1 : tileItems(n_active);
    const size_t planes_per_slot =
        use_planes ? 4 * n_active * plane_image_stride : 0;
    const size_t counts_per_slot =
        use_apc && !use_planes
            ? 4 * n_active * sc::kFilterLanes * seg_stride
            : 0;
    const size_t products_per_slot =
        use_apc ? 0 : 4 * n_active * sc::kFilterLanes * seg_words;
    const PixelTile::Spec tile_spec{
        .pool = use_max ? PixelTile::Pool::Max : PixelTile::Pool::Average,
        .btanh = btanh_tables_[layer_idx],
        .stanh = stanh_tables_[layer_idx],
        .n_inputs = n_inputs,
        .plane_cap = plane_cap,
        .segment_len = cfg_.segment_len,
        .c0 = seg.c0,
        .n_cycles = seg.n_cycles,
    };

    forChunks(pool, n_groups * positions, [&](size_t lo, size_t hi) {
        sc::BatchFusedWorkspace wsp;
        wsp.xs0.resize(n_inputs);
        wsp.x_strides.assign(n_inputs, in_stride);
        wsp.x_strides[n_inputs - 1] = 0; // shared bias line
        // +4 tail words: the pooling quad loads read whole 4-plane
        // groups past the last word's parity slot.
        std::vector<uint64_t> planes_buf(
            use_planes ? slots * planes_per_slot + 4 : 0);
        wsp.counts.resize(slots * counts_per_slot);
        wsp.products.resize(slots * products_per_slot);
        PixelTile tile(tile_spec, slots * sc::kFilterLanes * n_active);
        PhaseTimer timer;
        size_t slot = 0;
        for (size_t item = lo; item < hi; ++item) {
            const size_t g = item / positions;
            const size_t q = item % positions;
            const size_t oy = q / out_w;
            const size_t ox = q % out_w;
            const sc::WeightBlockView block = weights.blocked.block(g);
            uint64_t *const planes =
                planes_buf.data() + slot * planes_per_slot;
            uint16_t *const counts = wsp.counts.data() + slot * counts_per_slot;
            uint64_t *const products =
                wsp.products.data() + slot * products_per_slot;

            // The four pooling-window inner products of this filter
            // block, every lane and every active image.
            timer.start();
            for (size_t dy = 0; dy < 2; ++dy) {
                for (size_t dx = 0; dx < 2; ++dx) {
                    const size_t cy = 2 * oy + dy;
                    const size_t cx = 2 * ox + dx;
                    size_t idx = 0;
                    for (size_t ci = 0; ci < weights.c_in; ++ci)
                        for (size_t ky = 0; ky < k; ++ky)
                            for (size_t kx = 0; kx < k; ++kx)
                                wsp.xs0[idx++] =
                                    in.at(ci, cy + ky, cx + kx, 0);
                    wsp.xs0[idx] = bias_line_;

                    const size_t window = dy * 2 + dx;
                    if (use_planes) {
                        sc::fusedProductPlanesMultiBatch(
                            wsp.xs0, wsp.x_strides, active.data(),
                            n_active, block, /*approximate=*/true,
                            seg.w0, seg.w1,
                            planes + window * n_active * plane_image_stride,
                            plane_cap, plane_lane_stride,
                            plane_image_stride);
                    } else if (use_apc) {
                        product_counts(
                            wsp.xs0, wsp.x_strides, active.data(),
                            n_active, block, /*approximate=*/true,
                            seg.w0, seg.w1,
                            counts + window * n_active * sc::kFilterLanes *
                                         seg_stride,
                            seg_stride, sc::kFilterLanes * seg_stride);
                    } else {
                        // MUX layers run the per-image kernel (the
                        // selects are per-image RNG sequences anyway);
                        // the image loop still re-reads the block's
                        // weight slice from cache.
                        for (size_t j = 0; j < n_active; ++j) {
                            const size_t img = active[j];
                            sc::Xoshiro256ss &sel =
                                run.sel_rng[(item * 4 + window) * B +
                                            img];
                            sc::fillMuxSelects(n_inputs, seg.n_cycles,
                                               sel, wsp.selects);
                            sc::shiftViewsForImage(wsp.xs0,
                                                   wsp.x_strides, img,
                                                   wsp.xs_img);
                            mux_product(wsp.xs_img, block, wsp.selects,
                                        seg.w0, seg.w1,
                                        products + (window * n_active + j) *
                                                       sc::kFilterLanes *
                                                       seg_words,
                                        seg_words);
                        }
                    }
                }
            }
            timer.lap(timer.inner_product);

            // The window inputs of lane f, image j: (w * n_active + j)
            // * kFilterLanes + f is the workspace's [window][image][lane]
            // row.
            const auto row = [&](size_t w, size_t j, size_t f) {
                return (w * n_active + j) * sc::kFilterLanes + f;
            };
            if (reference) {
                for (size_t f = 0; f < block.lanes; ++f) {
                    const size_t p =
                        (g * sc::kFilterLanes + f) * positions + q;
                    for (size_t j = 0; j < n_active; ++j) {
                        const size_t img = active[j];
                        if (use_apc) {
                            const uint16_t *cnt[4];
                            for (size_t w = 0; w < 4; ++w)
                                cnt[w] = counts + row(w, j, f) * seg_stride;
                            run.out.arena.assign(
                                p, img,
                                referenceApcPixel(
                                    cnt, len, use_max, cfg_.segment_len,
                                    state_count,
                                    static_cast<unsigned>(n_inputs),
                                    timer));
                        } else {
                            const uint64_t *prod[4];
                            for (size_t w = 0; w < 4; ++w)
                                prod[w] = products + row(w, j, f) * seg_words;
                            run.out.arena.assign(
                                p, img,
                                referenceMuxPixel(
                                    prod, len, use_max, cfg_.segment_len,
                                    state_count,
                                    use_max ? nullptr
                                            : &run.pool_rng[p * B + img],
                                    timer));
                        }
                    }
                }
                continue;
            }

            // Register every (lane, image) pixel of the item with the
            // tile, which pools and activates them with the pixels of
            // the neighbouring items, carrying each pixel's selector
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
                    const size_t s = p * B + active[j];
                    uint64_t *const out =
                        run.out.arena.wordsAt(p, active[j]) + seg.w0;
                    if (use_planes) {
                        const uint64_t *in_planes[4];
                        for (size_t w = 0; w < 4; ++w)
                            in_planes[w] = planes +
                                           (w * n_active + j) *
                                               plane_image_stride +
                                           f * plane_lane_stride;
                        tile.add(in_planes, out, &run.fsm[s], &run.pool[s]);
                    } else if (use_apc) {
                        const uint16_t *cnt[4];
                        for (size_t w = 0; w < 4; ++w)
                            cnt[w] = counts + row(w, j, f) * seg_stride;
                        tile.add(cnt, out, &run.fsm[s]);
                    } else {
                        const uint64_t *prod[4];
                        for (size_t w = 0; w < 4; ++w)
                            prod[w] = products + row(w, j, f) * seg_words;
                        tile.add(prod, out, &run.fsm[s],
                                 use_max ? &run.pool[s] : nullptr,
                                 use_max ? nullptr : &run.pool_rng[s]);
                    }
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
ScNetwork::runFcLayerSegmentBatch(const std::vector<sc::BitstreamView> &in0,
                                  const std::vector<size_t> &in_strides,
                                  const FcWeightStreams &weights,
                                  size_t layer_idx, const SegRange &seg,
                                  const std::vector<uint32_t> &active,
                                  bool reference, FcBatchRun &run,
                                  ThreadPool *pool) const
{
    SCDCNN_ASSERT(in0.size() == weights.n_in,
                  "fc layer expects %zu inputs, got %zu", weights.n_in,
                  in0.size());
    const size_t n_inputs = weights.n_in + 1;
    const size_t B = run.out.images();
    const size_t n_active = active.size();
    const size_t len = cfg_.bitstream_len;
    const unsigned state_count = layer_k_[layer_idx];
    const bool use_apc = blocks::febUsesApc(stageFebKind(layer_idx));

    const size_t n_groups = weights.blocked.groups();
    const size_t seg_words = seg.w1 - seg.w0;
    const size_t seg_stride = seg_words * 64;
    const auto product_counts = reference
                                    ? &sc::referenceProductCountsMultiBatch
                                    : &sc::fusedProductCountsMultiBatch;
    const auto mux_product = reference ? &sc::referenceMuxProductMulti
                                       : &sc::fusedMuxProductMulti;

    // Per-item workspace slots and pixel tiles as in the conv runner;
    // an fc neuron feeds its activation unit directly.
    const size_t slots = reference ? 1 : tileItems(n_active);
    const size_t counts_per_slot =
        use_apc ? n_active * sc::kFilterLanes * seg_stride : 0;
    const size_t products_per_slot =
        use_apc ? 0 : n_active * sc::kFilterLanes * seg_words;
    const PixelTile::Spec tile_spec{
        .pool = PixelTile::Pool::None,
        .btanh = btanh_tables_[layer_idx],
        .stanh = stanh_tables_[layer_idx],
        .c0 = seg.c0,
        .n_cycles = seg.n_cycles,
    };

    // One neuron block per work item, chunked across the pool with
    // per-chunk workspaces; the shared input views are gathered once
    // per chunk and every block's weight slice streams contiguously.
    forChunks(pool, n_groups, [&](size_t lo, size_t hi) {
        sc::BatchFusedWorkspace wsp;
        wsp.xs0.resize(n_inputs);
        wsp.x_strides.resize(n_inputs);
        for (size_t i = 0; i < weights.n_in; ++i) {
            wsp.xs0[i] = in0[i];
            wsp.x_strides[i] = in_strides[i];
        }
        wsp.xs0[weights.n_in] = bias_line_;
        wsp.x_strides[weights.n_in] = 0;
        wsp.counts.resize(slots * counts_per_slot);
        wsp.products.resize(slots * products_per_slot);
        PixelTile tile(tile_spec, slots * sc::kFilterLanes * n_active);
        PhaseTimer timer;
        size_t slot = 0;
        for (size_t g = lo; g < hi; ++g) {
            const sc::WeightBlockView block = weights.blocked.block(g);
            uint16_t *const counts = wsp.counts.data() + slot * counts_per_slot;
            uint64_t *const products =
                wsp.products.data() + slot * products_per_slot;
            timer.start();
            if (use_apc) {
                product_counts(wsp.xs0, wsp.x_strides, active.data(),
                               n_active, block, /*approximate=*/true,
                               seg.w0, seg.w1, counts, seg_stride,
                               sc::kFilterLanes * seg_stride);
            } else {
                // One select generator per (neuron block, image),
                // shared by the block's lanes (cf. the conv layers'
                // per-(block, position, window) scheme).
                for (size_t j = 0; j < n_active; ++j) {
                    const size_t img = active[j];
                    sc::Xoshiro256ss &sel = run.sel_rng[g * B + img];
                    sc::fillMuxSelects(n_inputs, seg.n_cycles, sel,
                                       wsp.selects);
                    sc::shiftViewsForImage(wsp.xs0, wsp.x_strides, img,
                                           wsp.xs_img);
                    mux_product(wsp.xs_img, block, wsp.selects, seg.w0,
                                seg.w1,
                                products + j * sc::kFilterLanes * seg_words,
                                seg_words);
                }
            }
            timer.lap(timer.inner_product);

            if (reference) {
                // Scalar activation units over the whole stream, from
                // their initial state.
                for (size_t f = 0; f < block.lanes; ++f) {
                    const size_t o = g * sc::kFilterLanes + f;
                    for (size_t j = 0; j < n_active; ++j) {
                        const size_t img = active[j];
                        if (use_apc) {
                            const uint16_t *cnt =
                                counts + (j * sc::kFilterLanes + f) *
                                             seg_stride;
                            sc::Btanh unit(
                                state_count,
                                static_cast<unsigned>(n_inputs));
                            run.out.assign(
                                o, img,
                                unit.transform(std::vector<uint16_t>(
                                    cnt, cnt + len)));
                        } else {
                            const uint64_t *prod =
                                products +
                                (j * sc::kFilterLanes + f) * seg_words;
                            sc::Bitstream stream(len);
                            std::copy(prod, prod + seg_words,
                                      stream.mutableWords().begin());
                            sc::Stanh fsm(state_count);
                            run.out.assign(o, img, fsm.transform(stream));
                        }
                    }
                    timer.lap(timer.activation);
                }
                continue;
            }

            for (size_t f = 0; f < block.lanes; ++f) {
                const size_t o = g * sc::kFilterLanes + f;
                for (size_t j = 0; j < n_active; ++j) {
                    const size_t img = active[j];
                    uint64_t *const out = run.out.wordsAt(o, img) + seg.w0;
                    const size_t row = j * sc::kFilterLanes + f;
                    if (use_apc) {
                        const uint16_t *cnt = counts + row * seg_stride;
                        tile.add(&cnt, out, &run.fsm[o * B + img]);
                    } else {
                        const uint64_t *prod = products + row * seg_words;
                        tile.add(&prod, out, &run.fsm[o * B + img]);
                    }
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
                                 const OutputWeightStreams &weights,
                                 const SegRange &seg,
                                 const std::vector<uint32_t> &active,
                                 bool reference, OutputBatchRun &run) const
{
    const Clock::time_point t0 = Clock::now();
    const size_t n_inputs = weights.n_in + 1;
    const size_t B = run.consumed.size();
    std::vector<sc::BitstreamView> xs0(n_inputs);
    std::vector<size_t> strides(n_inputs);
    std::vector<sc::BitstreamView> xs_img;
    std::vector<sc::BitstreamView> ws(n_inputs);
    for (size_t i = 0; i < weights.n_in; ++i) {
        xs0[i] = in0[i];
        strides[i] = in_strides[i];
    }
    xs0[weights.n_in] = bias_line_;
    strides[weights.n_in] = 0;
    const auto count_total = reference
                                 ? &sc::referenceProductCountTotalRange
                                 : &sc::fusedProductCountTotalRange;

    // The accumulator de-randomizes: score = sum of bipolar sums. The
    // per-cycle counts are never materialized — each segment's
    // contribution reduces to word popcounts, summed into the
    // per-(class, image) running accumulators. Class o's weight
    // streams are gathered once and re-read from cache across the
    // image loop (the layer is binary and tiny, so no batch kernel is
    // needed for it).
    for (size_t o = 0; o < weights.n_out; ++o) {
        for (size_t i = 0; i < n_inputs; ++i)
            ws[i] = weights.at(o, i);
        for (const uint32_t img : active) {
            sc::shiftViewsForImage(xs0, strides, img, xs_img);
            count_total(xs_img, ws, seg.w0, seg.w1, run.acc[o * B + img]);
        }
    }
    for (const uint32_t img : active)
        run.consumed[img] += seg.n_cycles;
    emitPhase(obs::SpanName::Output, nsSince(t0), seg.w0);
}

std::vector<size_t>
ScNetwork::forwardStreams(std::span<const nn::Tensor> images,
                          std::span<const uint64_t> seeds,
                          const PredictOptions &opts, ThreadPool *pool,
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
    //  - everything else takes batch_stream_segment_words,
    //    whole-stream by default, so each weight block streams once
    //    per call.
    size_t seg_words = n_words;
    if (!reference && (mode == EngineMode::Progressive || poll_cancel))
        seg_words = cfg_.stream_segment_words != 0
                        ? cfg_.stream_segment_words
                        : kCheckpointFallbackSegmentWords;
    else if (!reference && cfg_.batch_stream_segment_words != 0)
        seg_words = cfg_.batch_stream_segment_words;
    seg_words = std::min(seg_words, n_words);

    // Per-stage carried state, seeded positionally per stage index
    // (stage l of image b gets seeds[b] ^ 0x1111*(l+1)).
    const size_t n_convs = convs_.size();
    const size_t n_fcs = fcs_.size();
    BatchStreamGrid x = encodeImagesBatch(images, seeds, pool);
    std::vector<ConvBatchRun> cruns(n_convs);
    std::vector<FcBatchRun> fruns(n_fcs);
    OutputBatchRun out;
    std::vector<uint64_t> stage_seeds(B);
    for (size_t l = 0; l < n_convs; ++l) {
        for (size_t b = 0; b < B; ++b)
            stage_seeds[b] = seeds[b] ^ (0x1111ULL * (l + 1));
        initConvBatchRun(cruns[l], l == 0 ? x : cruns[l - 1].out,
                         convs_[l], l, stage_seeds);
    }
    for (size_t j = 0; j < n_fcs; ++j) {
        for (size_t b = 0; b < B; ++b)
            stage_seeds[b] = seeds[b] ^ (0x1111ULL * (n_convs + j + 1));
        initFcBatchRun(fruns[j], fcs_[j], n_convs + j, stage_seeds);
    }
    out.acc.assign(out_.n_out * B, {});
    out.consumed.assign(B, 0);

    // Input views of each fc stage and of the output layer — image-0
    // views plus the per-site image word stride of the producing arena
    // (the batch-kernel operand form): the flattened last conv grid
    // (or the image itself for conv-free nets) feeds the first fc;
    // each later stage reads its predecessor's output arena.
    const auto arena_views = [](const sc::BatchStreamArena &a) {
        std::vector<sc::BitstreamView> v;
        v.reserve(a.count());
        for (size_t i = 0; i < a.count(); ++i)
            v.push_back(a.view(i, 0));
        return v;
    };
    const sc::BatchStreamArena &flat =
        n_convs > 0 ? cruns.back().out.arena : x.arena;
    std::vector<std::vector<sc::BitstreamView>> fc_in(n_fcs);
    std::vector<std::vector<size_t>> fc_strides(n_fcs);
    for (size_t j = 0; j < n_fcs; ++j) {
        const sc::BatchStreamArena &src = j == 0 ? flat : fruns[j - 1].out;
        fc_in[j] = arena_views(src);
        fc_strides[j].assign(fc_in[j].size(), src.strideWords());
    }
    const sc::BatchStreamArena &out_src =
        n_fcs > 0 ? fruns.back().out : flat;
    const std::vector<sc::BitstreamView> out_in = arena_views(out_src);
    const std::vector<size_t> out_strides(out_in.size(),
                                          out_src.strideWords());

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

        for (size_t l = 0; l < n_convs; ++l)
            runConvLayerSegmentBatch(l == 0 ? x : cruns[l - 1].out,
                                     convs_[l], l, seg, active,
                                     reference, cruns[l], pool);
        for (size_t j = 0; j < n_fcs; ++j)
            runFcLayerSegmentBatch(fc_in[j], fc_strides[j], fcs_[j],
                                   n_convs + j, seg, active, reference,
                                   fruns[j], pool);
        runOutputSegmentBatch(out_in, out_strides, out_, seg, active,
                              reference, out);

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
                    for (size_t o = 0; o < out_.n_out; ++o) {
                        const uint64_t v =
                            out.acc[o * B + img].value(
                                /*approximate=*/true);
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
    const auto fan_in = static_cast<double>(out_.n_in + 1);
    for (size_t b = 0; b < B; ++b) {
        const auto consumed = static_cast<double>(out.consumed[b]);
        std::vector<double> scores(out_.n_out);
        for (size_t o = 0; o < out_.n_out; ++o)
            scores[o] = (2.0 * static_cast<double>(out.acc[o * B + b]
                                                       .value(
                                                           /*approximate=*/
                                                           true)) -
                         fan_in * consumed) /
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
        {&image, 1}, {&seed, 1}, opts, nullptr,
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
    if (opts.mode == EngineMode::Binary) {
        // The binary backend is a separate, deterministic per-image
        // pass, so its batch is a plain fan-out over the pool.
        std::vector<size_t> preds(images.size());
        forEach(pool, images.size(), [&](size_t i) {
            preds[i] = predictBinary(
                images[i], infos != nullptr ? &(*infos)[i] : nullptr);
        });
        return preds;
    }
    return forwardStreams(
        images, seeds, opts, pool,
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
