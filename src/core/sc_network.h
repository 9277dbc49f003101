/**
 * @file
 * The bit-level SC-DCNN inference engine.
 *
 * Runs any sequential conv/pool/fc network (the paper's LeNet5
 * included) entirely in the stochastic-computing domain: pixels and
 * (quantized) trained weights enter through SNGs as bipolar
 * bit-streams; every layer is evaluated by feature extraction blocks
 * (XNOR multipliers + MUX/APC adders + pooling + Stanh/Btanh) exactly
 * as the configured hardware would; the final fc layer runs in the
 * binary domain (APC counts accumulated per class, argmax). The
 * feature-extraction-block structure is derived from the layer list
 * by nn/topology.h's plan derivation, not pattern-matched against a
 * fixed shape.
 *
 * Weight streams are generated once per network instance and shared by
 * all feature extraction blocks of a filter, mirroring the
 * filter-aware SRAM sharing scheme of Section 5.1. Each filter's /
 * neuron's weight streams — and each layer's pixel streams, per image —
 * are packed into contiguous arenas, so the fused kernels stream
 * through memory via BitstreamViews instead of chasing per-Bitstream
 * heap allocations. One driver runs every forward pass, single images
 * included, as a weight-stationary batch.
 */

#ifndef SCDCNN_CORE_SC_NETWORK_H
#define SCDCNN_CORE_SC_NETWORK_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/binary_net.h"
#include "core/sc_config.h"
#include "nn/dataset.h"
#include "nn/network.h"
#include "nn/topology.h"
#include "sc/bitstream.h"
#include "sc/fsm_batch.h"
#include "sc/fused.h"
#include "sc/rng.h"

namespace scdcnn {

class ThreadPool;

namespace core {

/**
 * Which kernel implementation the engine runs on.
 *
 * Fused is the production path: filter-blocked word-parallel kernels
 * over the packed uint64_t words (SIMD-dispatched where available),
 * table-driven activation FSMs, reusable per-thread workspaces,
 * layers fanned out across the thread pool, whole streams per call —
 * or, for a call that needs checkpoints (Progressive, cancellation),
 * the whole network advanced in stream segments with FSM/pooling/
 * select state carried across segments. Reference drives the same
 * driver and stage runner through the bit-serial oracle kernels (one
 * bit per cycle, whole streams) and the scalar Stanh/Btanh steppers —
 * the ground truth the fused path is tested against and the baseline
 * bench_throughput measures speedup over.
 * Progressive is Fused plus stochastic computing's progressive
 * precision: after each segment the output layer's class-score gap is
 * tested and the remaining segments are skipped once the argmax
 * margin exceeds ScNetworkConfig::progressive_margin — a
 * latency/accuracy trade, so it is opt-in and never the default.
 * Fused and Reference consume identical RNG sequences, so their
 * predictions are bit-exact across modes, segment sizes, and thread
 * counts.
 * Binary is the XNOR-popcount sibling backend (core/binary_net.h):
 * the same derived plan executed at stream length 1 with
 * sign-quantized weights, popcount-sign activations, and no stream
 * sampling at all — fully deterministic (seeds are ignored), roughly
 * an order of magnitude faster than Fused, and differentially tested
 * for exact equality against a float sign-network oracle.
 */
enum class EngineMode
{
    Fused,
    Reference,
    Progressive,
    Binary,
};

/**
 * Cooperative cancellation signal checked at stream-segment
 * boundaries. Implementations must be thread-safe and cheap: the
 * engine queries it between segments (never inside a kernel), so a
 * cancelled forward pass stops burning stream cycles at the next
 * checkpoint instead of running to completion for a caller that no
 * longer wants the answer. The partial result up to the boundary is
 * still well-formed (scores over the consumed prefix, reported via
 * ForwardInfo with `cancelled` set); cancellation of one image in a
 * batch never perturbs its batch-mates — the image is removed from
 * the active set exactly like a Progressive early exit.
 */
class CancelSignal
{
  public:
    virtual ~CancelSignal() = default;
    virtual bool cancelled() const = 0;
};

/**
 * Per-forward-pass outcome details (scores and, in Progressive mode,
 * the effective stream length actually consumed).
 */
struct ForwardInfo
{
    std::vector<double> scores; //!< output-layer bipolar-sum scores
    size_t effective_bits = 0;  //!< stream cycles consumed
    bool early_exit = false;    //!< Progressive margin test fired
    bool cancelled = false;     //!< stopped by a CancelSignal
};

/**
 * Per-call engine selection: predictWith() evaluates with these
 * instead of the instance-wide engineMode()/config knobs, so callers
 * that share one ScNetwork across threads (the serving layer) can mix
 * precision policies per request without mutating shared state —
 * setEngineMode() is not thread-safe against concurrent predict()
 * calls, PredictOptions is.
 */
struct PredictOptions
{
    EngineMode mode = EngineMode::Fused;
    /** Progressive early-exit margin (ignored unless mode is
     *  Progressive); see ScNetworkConfig::progressive_margin. */
    double progressive_margin = kDefaultProgressiveMargin;
    /** Progressive floor on consumed stream cycles. */
    size_t progressive_min_bits = kDefaultProgressiveMinBits;
    /**
     * Cooperative cancellation for predictWith(): polled at segment
     * boundaries of the checkpoint grid (no effect in Reference mode,
     * which runs whole streams). Batch calls take a per-image signal
     * array instead — see forwardBatch. Must outlive the call.
     */
    const CancelSignal *cancel = nullptr;
};

/**
 * SC-domain network built from a trained float network.
 *
 * Accepts any sequential conv/pool/fc topology the plan grammar of
 * nn/topology.h supports (buildLeNet5() is one instance): the
 * feature-extraction-block structure — geometry, fan-ins, FSM gains,
 * arena sizes, paper-group knobs — is derived from the layer list at
 * construction, with per-layer diagnostics for unsupported shapes.
 */
class ScNetwork
{
  public:
    /**
     * @param trained     a trained sequential conv/pool/fc network
     *                    (validated against cfg.input_c/h/w geometry)
     * @param cfg         per-group FEB configuration + input geometry
     * @param weight_seed seed for the weight-stream SNGs
     */
    ScNetwork(const nn::Network &trained, ScNetworkConfig cfg,
              uint64_t weight_seed = 0xC0FFEE);

    /**
     * SC-domain forward pass + argmax for one image under the
     * instance-wide engineMode()/config knobs. When @p info is
     * non-null, the class scores and the effective stream length
     * (== bitstream_len except under Progressive early exit) are
     * reported there.
     */
    size_t predict(const nn::Tensor &image, uint64_t seed,
                   ForwardInfo *info = nullptr) const;

    /**
     * predict() with per-call engine/precision selection. Reads no
     * instance-wide mode state, so concurrent callers may use
     * different options against one shared network. A one-image batch
     * of the same driver forwardBatch runs, fanned out across the
     * process-global pool.
     */
    size_t predictWith(const nn::Tensor &image, uint64_t seed,
                       const PredictOptions &opts,
                       ForwardInfo *info = nullptr) const;

    /**
     * Source-compatible form of the older five-argument predictWith,
     * whose fourth argument (a per-phase profile sink, superseded by
     * the trace aggregate) no longer exists: callers pass nullptr
     * there. Identical to predictWith(image, seed, opts, info).
     */
    size_t predictWith(const nn::Tensor &image, uint64_t seed,
                       const PredictOptions &opts, std::nullptr_t,
                       ForwardInfo *info) const
    {
        return predictWith(image, seed, opts, info);
    }

    /**
     * Batched forward pass: predictions for every image, fanned out
     * across @p pool (the process-global pool when null). Image i runs
     * at seed + i * 7919; every per-site generator is derived from
     * position, not evaluation order, so the result is identical for
     * any thread count — including 1 — and matches per-image predict()
     * calls at the same seeds.
     */
    std::vector<size_t> forwardBatch(const std::vector<nn::Tensor> &images,
                                     uint64_t seed,
                                     ThreadPool *pool = nullptr) const;

    /**
     * forwardBatch with per-image outcome details: when @p infos is
     * non-null it is resized to images.size() and entry i receives the
     * scores / effective_bits / early_exit of image i — what batch
     * callers (the serving layer) need beyond the bare class index.
     * The seed schedule and predictions are identical to the overload
     * above; @p opts selects the engine per the predictWith() rules.
     */
    std::vector<size_t> forwardBatch(const std::vector<nn::Tensor> &images,
                                     uint64_t seed,
                                     const PredictOptions &opts,
                                     ThreadPool *pool,
                                     std::vector<ForwardInfo> *infos) const;

    /**
     * forwardBatch with an explicit per-image seed (seeds.size() must
     * equal images.size()) instead of the seed + i * 7919 schedule —
     * the serving layer's micro-batches carry caller-chosen seeds, so
     * they cannot be expressed as a base-seed schedule. Image i is
     * bit-exact with predictWith(images[i], seeds[i], opts) at any
     * batch size.
     *
     * @p cancels, when non-null, carries one CancelSignal per image
     * (null entries = not cancellable): image i's signal is polled at
     * segment boundaries, and a cancelled image freezes in place and
     * leaves the active set exactly like a Progressive early exit —
     * its batch-mates' streams and results are untouched. opts.cancel
     * is not consulted here.
     */
    std::vector<size_t>
    forwardBatch(const std::vector<nn::Tensor> &images,
                 const std::vector<uint64_t> &seeds,
                 const PredictOptions &opts, ThreadPool *pool,
                 std::vector<ForwardInfo> *infos,
                 const std::vector<const CancelSignal *> *cancels =
                     nullptr) const;

    /**
     * Classification error rate over (up to @p max_images of) the
     * dataset. Routed through forwardBatch — the one place the
     * per-image seed schedule lives — so results
     * are reproducible from the batch predictions; @p pool as in
     * forwardBatch.
     */
    double errorRate(const nn::Dataset &ds, size_t max_images,
                     uint64_t seed = 777, ThreadPool *pool = nullptr) const;

    /** Select the fused fast path (default) or the bit-serial
     *  reference oracle. Predictions are bit-exact across modes. */
    void setEngineMode(EngineMode mode) { engine_ = mode; }

    /** The kernel implementation currently selected. */
    EngineMode engineMode() const { return engine_; }

    /** The configuration this instance implements. */
    const ScNetworkConfig &config() const { return cfg_; }

    /**
     * Output attenuation of hidden stage @p layer relative to the
     * float network's activation: the ratio g_sc / g_float between
     * the gain the SC activation unit realizes and the gain the float
     * baseline was trained with. 1.0 when the unit could match the
     * trained gain; below 1.0 when the FSM mixing-time clamp forced a
     * smaller state count. The next layer's weight streams are
     * programmed at w / layerGain (saturating in the SNG — the
     * paper's pre-scaling) to compensate.
     */
    double layerGain(size_t layer) const { return layer_gain_.at(layer); }

    /** The activation state count hidden stage @p layer operates with. */
    unsigned layerStateCount(size_t layer) const
    {
        return layer_k_.at(layer);
    }

    /** Hidden feature-extraction stages (3 for LeNet5). */
    size_t stageCount() const { return plan_.stages.size(); }

    /** The derived construction plan this instance was built from. */
    const nn::NetworkPlan &plan() const { return plan_; }

    /** The XNOR-popcount sibling backend EngineMode::Binary runs —
     *  built from the same trained net and plan at construction. */
    const BinaryNetwork &binaryNet() const { return binary_; }

  private:
    /** The per-call options the instance-wide knobs (engineMode(),
     *  config()) translate to — what predict(), the two-argument
     *  forwardBatch and errorRate run with. */
    PredictOptions defaultOptions() const
    {
        PredictOptions opts;
        opts.mode = engine_;
        opts.progressive_margin = cfg_.progressive_margin;
        opts.progressive_min_bits = cfg_.progressive_min_bits;
        return opts;
    }

    /** One segment of the stream axis: words [w0, w1) covering cycles
     *  [c0, c0 + n_cycles). */
    struct SegRange
    {
        size_t w0 = 0, w1 = 0;
        size_t c0 = 0, n_cycles = 0;
    };

    /** One (c, h, w) grid of streams per image, packed site-major /
     *  image-minor so the batch kernels address image b of a site as
     *  the image-0 view plus b * strideWords() words. */
    struct BatchStreamGrid
    {
        size_t c = 0, h = 0, w = 0;
        sc::BatchStreamArena arena;

        sc::BitstreamView at(size_t ci, size_t y, size_t x,
                             size_t b) const
        {
            return arena.view((ci * h + y) * w + x, b);
        }
    };

    /** Per-forward carried state of a hidden stage: its output grid
     *  (an fc stage's is n_out x 1 x 1) plus per-pixel activation-FSM
     *  states, pooling-selector carry, and (MUX stages) the per-site
     *  generators, all indexed positionally (site * B + image) so any
     *  thread partition reproduces the same streams and an image's
     *  state freezes in place when it leaves the active set. */
    struct StageRun
    {
        BatchStreamGrid out;
        std::vector<uint16_t> fsm;              //!< [pixel][image]
        std::vector<uint64_t> pool_counters;    //!< [pixel][image][window]
        std::vector<uint32_t> pool_selected;    //!< [pixel][image]
        std::vector<sc::Xoshiro256ss> sel_rng;  //!< [site][image]
        std::vector<sc::Xoshiro256ss> pool_rng; //!< [pixel][image]
    };

    /** Per-forward carried state of the binary output layer: the
     *  accumulated approximate APC counts per (class, image) plus
     *  per-image consumed cycles (both frozen when the image leaves
     *  the active set). */
    struct OutputBatchRun
    {
        std::vector<uint64_t> acc;    //!< [class][image]
        std::vector<size_t> consumed; //!< [image]
    };

    BatchStreamGrid encodeImagesBatch(std::span<const nn::Tensor> images,
                                      std::span<const uint64_t> seeds,
                                      ThreadPool &pool) const;

    void initStageRun(StageRun &run, size_t stage,
                      const std::vector<uint64_t> &seeds) const;

    /**
     * Advance hidden stage @p stage over one segment for the active
     * images: inner products, pooling and activation of every output
     * pixel. Conv and fc stages share this runner: an fc stage is a
     * conv stage whose kernel covers its whole input grid, with one
     * output position, one window and no pooling.
     */
    void runStageSegment(const BatchStreamGrid &in, size_t stage,
                         const SegRange &seg,
                         const std::vector<uint32_t> &active,
                         bool reference, StageRun &run,
                         ThreadPool &pool) const;

    /**
     * Advance the binary output layer over one segment for the active
     * images: one weight-stationary batch inner product per class
     * block (Reference: its bit-serial twin) over the flattened last
     * grid plus the bias line — @p in0 image-0 views, @p in_strides
     * their image word strides — whose approximate APC counts are
     * summed into each (class, image) accumulator.
     */
    void runOutputSegmentBatch(const std::vector<sc::BitstreamView> &in0,
                               const std::vector<size_t> &in_strides,
                               const SegRange &seg,
                               const std::vector<uint32_t> &active,
                               bool reference, OutputBatchRun &run) const;

    /**
     * The one SC execution driver behind predict, predictWith and
     * forwardBatch, at every batch size and in Fused, Progressive and
     * Reference modes: one shared segment loop advancing every active
     * image through every layer on the weight-stationary batch
     * kernels (Reference: their bit-serial twins, per image), with
     * per-image Progressive early exit and cancellation compacting the
     * active set at segment boundaries. @p infos and @p cancels are
     * either empty or one entry per image.
     */
    std::vector<size_t>
    forwardStreams(std::span<const nn::Tensor> images,
                   std::span<const uint64_t> seeds,
                   const PredictOptions &opts, ThreadPool &pool,
                   std::span<ForwardInfo> infos,
                   std::span<const CancelSignal *const> cancels) const;

    /** EngineMode::Binary for one image: the sibling backend's
     *  deterministic single pass (no streams, seeds or segments). */
    size_t predictBinary(const nn::Tensor &image, ForwardInfo *info) const;

    /** The FEB kind hidden stage @p layer runs with (derived from its
     *  paper group and whether the stage pools). */
    blocks::FebKind stageFebKind(size_t layer) const
    {
        const nn::PlanStage &st = plan_.stages[layer];
        return cfg_.febKindFor(st.paper_group, st.pooled);
    }

    ScNetworkConfig cfg_;
    nn::NetworkPlan plan_;
    EngineMode engine_ = EngineMode::Fused;
    sc::Bitstream bias_line_; //!< the constant +1 stream

    /** Weight streams of hidden stage l, stored once in the
     *  filter-interleaved layout the blocked kernels (and their
     *  reference twins) stream through: filter f, tap i < fan_in in the
     *  stage's (channel, row, column) input order, the bias at tap
     *  fan_in. The geometry is plan_.stages[l]'s. */
    std::vector<sc::InterleavedWeightArena> stages_;
    /** The binary output layer's weight streams in the same layout
     *  (class o is filter o); the geometry is plan_.output's. */
    sc::InterleavedWeightArena out_;

    std::vector<double> layer_gain_;
    std::vector<unsigned> layer_k_;

    /** Batched activation tables, built once at construction and
     *  shared by all pixels of a layer (null where the layer's FEB
     *  kind uses the other activation family). */
    sc::FsmTableCache fsm_tables_;
    std::vector<const sc::StanhBatchTable *> stanh_tables_;
    std::vector<const sc::BtanhBatchTable *> btanh_tables_;

    /** The EngineMode::Binary backend (declared after plan_: it is
     *  built from the trained net and the already-derived plan). */
    BinaryNetwork binary_;
};

} // namespace core
} // namespace scdcnn

#endif // SCDCNN_CORE_SC_NETWORK_H
