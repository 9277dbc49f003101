/**
 * @file
 * SC-DCNN network configurations: per-layer feature extraction block
 * choices, bit-stream length, weight precision — and the twelve Table 6
 * configurations of the paper.
 */

#ifndef SCDCNN_CORE_SC_CONFIG_H
#define SCDCNN_CORE_SC_CONFIG_H

#include <array>
#include <string>
#include <vector>

#include "blocks/feature_block.h"
#include "hw/network_cost.h"
#include "nn/network.h"

namespace scdcnn {
namespace core {

/** Inner-product flavour chosen per layer in Table 6. */
enum class AdderKind
{
    Mux,
    Apc,
};

/** "MUX" / "APC". */
std::string adderKindName(AdderKind kind);

/** Calibrated Progressive-mode defaults, shared by ScNetworkConfig
 *  and core::PredictOptions so the two cannot drift apart. */
constexpr double kDefaultProgressiveMargin = 4.0;
constexpr size_t kDefaultProgressiveMinBits = 256;

/** Full SC-DCNN configuration. */
struct ScNetworkConfig
{
    nn::PoolingMode pooling = nn::PoolingMode::Max;

    /**
     * Per-paper-group adder kinds, indexed by the derived Layer0/1/2
     * grouping (nn/topology.h): [0] the first conv block, [1] every
     * deeper conv block, [2] all fully-connected layers. For LeNet5
     * this is exactly the Table 6 conv1/conv2/FC split.
     */
    std::array<AdderKind, 3> layer_adders = {AdderKind::Apc,
                                             AdderKind::Apc,
                                             AdderKind::Apc};
    size_t bitstream_len = 1024;

    /** Per-paper-group weight precisions (Section 5.3), grouped like
     *  layer_adders. */
    std::array<unsigned, 3> weight_bits = {7, 7, 6};
    size_t segment_len = 16;

    /** Input image geometry the engine is built for (the plan is
     *  derived and validated against it at construction). */
    size_t input_c = 1, input_h = 28, input_w = 28;

    /**
     * Checkpoint grid of the SC driver, in 64-bit words: the segment
     * size of Progressive calls and of any call carrying a cancel
     * signal, since early exit and cancellation act only at segment
     * boundaries. The whole network (inner product -> pooling ->
     * activation -> output accumulation) advances this many words of
     * the streams at a time, carrying FSM/pooling/select state across
     * segments. 0 falls back to a default granularity (a whole-stream
     * run would leave no checkpoint). Every other call runs whole
     * streams: plain Fused calls (each weight block is streamed once
     * per call) and Reference. Results are bit-exact for every value
     * (the segment-streaming equivalence tests pin this down).
     */
    size_t stream_segment_words = 4;

    /**
     * EngineMode::Progressive early-exit threshold: stop consuming
     * stream segments once the output layer's bipolar-score gap
     * between the best and second-best class exceeds this margin.
     * Progressive precision trades a configurable sliver of accuracy
     * for latency; 0 exits at the first margin check. The default is
     * calibrated on the trained LeNet-5 digit task: margin 4.0 halves
     * the average consumed bits with no measured error-rate change
     * (see DESIGN.md; smaller margins exit earlier but start flipping
     * borderline images).
     */
    double progressive_margin = kDefaultProgressiveMargin;

    /** Progressive mode never exits before this many stream cycles. */
    size_t progressive_min_bits = kDefaultProgressiveMinBits;

    /** The adder kind of a derived paper group (0, 1 or 2). */
    AdderKind adderFor(size_t paper_group) const;

    /**
     * The FEB kind a stage of the given paper group uses: the group's
     * adder combined with the pooling mode — pooled (conv) stages
     * follow the configured pooling, fc stages have no pooling stage
     * and use the Avg variants (whose pooling degenerates to a
     * pass-through).
     */
    blocks::FebKind febKindFor(size_t paper_group, bool pooled) const;

    /** Human-readable summary ("max L=1024 MUX-MUX-APC"). */
    std::string describe() const;

    /** Field-wise equality — artifact round-trip tests assert a
     *  deserialized config is exactly the one that was saved. */
    friend bool operator==(const ScNetworkConfig &a,
                           const ScNetworkConfig &b)
    {
        return a.pooling == b.pooling &&
               a.layer_adders == b.layer_adders &&
               a.bitstream_len == b.bitstream_len &&
               a.weight_bits == b.weight_bits &&
               a.segment_len == b.segment_len && a.input_c == b.input_c &&
               a.input_h == b.input_h && a.input_w == b.input_w &&
               a.stream_segment_words == b.stream_segment_words &&
               a.progressive_margin == b.progressive_margin &&
               a.progressive_min_bits == b.progressive_min_bits;
    }
    friend bool operator!=(const ScNetworkConfig &a,
                           const ScNetworkConfig &b)
    {
        return !(a == b);
    }
};

/** One Table 6 row definition. */
struct Table6Entry
{
    int number;            //!< 1..12
    ScNetworkConfig config;
    double paper_inaccuracy_pct; //!< the paper's reported value
    double paper_area_mm2;
    double paper_power_w;
    double paper_delay_ns;
    double paper_energy_uj;
};

/** The twelve configurations of Table 6 with the paper's numbers. */
std::vector<Table6Entry> table6Entries();

/** Map an SC config onto the hardware cost model's knobs. */
hw::Lenet5HwConfig toHwConfig(const ScNetworkConfig &cfg);

} // namespace core
} // namespace scdcnn

#endif // SCDCNN_CORE_SC_CONFIG_H
