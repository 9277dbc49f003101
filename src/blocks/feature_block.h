/**
 * @file
 * Feature extraction blocks (Section 4.4, Figure 10).
 *
 * A feature extraction block (FEB) cascades four inner-product blocks,
 * one pooling block and one activation block; the paper proposes four
 * jointly-optimized compositions:
 *
 *   MUX-Avg-Stanh   cheapest; down-scales twice, worst accuracy
 *   MUX-Max-Stanh   hardware max pooling + the Figure 11 shifted FSM
 *   APC-Avg-Btanh   binary averaging, high accuracy
 *   APC-Max-Btanh   binary max pooling, best accuracy
 *
 * State counts come from the empirical equations in activation.h.
 */

#ifndef SCDCNN_BLOCKS_FEATURE_BLOCK_H
#define SCDCNN_BLOCKS_FEATURE_BLOCK_H

#include <cstdint>
#include <string>
#include <vector>

#include "sc/bitstream.h"
#include "sc/sng.h"

namespace scdcnn {
namespace blocks {

/** The four feature extraction block designs. */
enum class FebKind
{
    MuxAvgStanh,
    MuxMaxStanh,
    ApcAvgBtanh,
    ApcMaxBtanh,
};

/** Human-readable name ("MUX-Avg-Stanh", ...). */
std::string febKindName(FebKind kind);

/** Whether the FEB uses an APC-based (binary) inner product. */
bool febUsesApc(FebKind kind);

/** Whether the FEB uses max pooling. */
bool febUsesMaxPool(FebKind kind);

/** Static configuration of one feature extraction block. */
struct FebConfig
{
    FebKind kind = FebKind::ApcAvgBtanh;
    size_t n_inputs = 16;    //!< receptive field size N per inner product
    size_t length = 1024;    //!< bit-stream length L
    size_t pool_size = 4;    //!< inner products per pooling window
    size_t segment_len = 16; //!< c, for the hardware max pooling block
};

/**
 * One feature extraction block instance.
 */
class FeatureBlock
{
  public:
    explicit FeatureBlock(const FebConfig &cfg);

    /**
     * Run the block on pre-generated operand streams.
     * @param xs pool_size receptive fields, each n_inputs streams
     * @param ws matching weight streams
     * @param bank source of select lines / fresh RNGs
     */
    sc::Bitstream run(const std::vector<std::vector<sc::Bitstream>> &xs,
                      const std::vector<std::vector<sc::Bitstream>> &ws,
                      sc::SngBank &bank) const;

    /**
     * Encode values, run the block, decode the bipolar output.
     * @param xs pool_size receptive fields of n_inputs values in [-1,1]
     * @param ws matching weights in [-1,1]
     */
    double evaluate(const std::vector<std::vector<double>> &xs,
                    const std::vector<std::vector<double>> &ws,
                    uint64_t seed) const;

    /**
     * Float reference: tanh(pool(sum_i x_i w_i)) with the block's
     * pooling mode (mean or max of the non-scaled inner products).
     */
    static double reference(const std::vector<std::vector<double>> &xs,
                            const std::vector<std::vector<double>> &ws,
                            FebKind kind);

    /** The activation state count the block will use. */
    unsigned stateCount() const { return state_count_; }

    /** The block's configuration. */
    const FebConfig &config() const { return cfg_; }

  private:
    FebConfig cfg_;
    unsigned state_count_;
};

} // namespace blocks
} // namespace scdcnn

#endif // SCDCNN_BLOCKS_FEATURE_BLOCK_H
