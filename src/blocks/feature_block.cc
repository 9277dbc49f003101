#include "blocks/feature_block.h"

#include <algorithm>
#include <cmath>

#include "blocks/activation.h"
#include "blocks/inner_product.h"
#include "blocks/pooling.h"
#include "common/logging.h"
#include "sc/btanh.h"
#include "sc/stanh.h"

namespace scdcnn {
namespace blocks {

std::string
febKindName(FebKind kind)
{
    switch (kind) {
      case FebKind::MuxAvgStanh:
        return "MUX-Avg-Stanh";
      case FebKind::MuxMaxStanh:
        return "MUX-Max-Stanh";
      case FebKind::ApcAvgBtanh:
        return "APC-Avg-Btanh";
      case FebKind::ApcMaxBtanh:
        return "APC-Max-Btanh";
    }
    panic("unknown FebKind");
}

bool
febUsesApc(FebKind kind)
{
    return kind == FebKind::ApcAvgBtanh || kind == FebKind::ApcMaxBtanh;
}

bool
febUsesMaxPool(FebKind kind)
{
    return kind == FebKind::MuxMaxStanh || kind == FebKind::ApcMaxBtanh;
}

namespace {

unsigned
selectStateCount(const FebConfig &cfg)
{
    switch (cfg.kind) {
      case FebKind::MuxAvgStanh:
        return stanhStateCountAvg(cfg.length, cfg.n_inputs);
      case FebKind::MuxMaxStanh:
        return stanhStateCountMax(cfg.length, cfg.n_inputs);
      case FebKind::ApcAvgBtanh:
        // Eq. (3) assumes the 4-way averaging in front of Btanh; with
        // no pooling (FC layers) the per-cycle variance is 4x higher
        // and the original direct sizing applies.
        if (cfg.pool_size == 1)
            return sc::Btanh::stateCountDirect(
                static_cast<unsigned>(cfg.n_inputs));
        return sc::Btanh::stateCountAvgPool(
            static_cast<unsigned>(cfg.n_inputs));
      case FebKind::ApcMaxBtanh:
        return sc::Btanh::stateCountDirect(
            static_cast<unsigned>(cfg.n_inputs));
    }
    panic("unknown FebKind");
}

} // namespace

FeatureBlock::FeatureBlock(const FebConfig &cfg)
    : cfg_(cfg), state_count_(selectStateCount(cfg))
{
    SCDCNN_ASSERT(cfg_.pool_size >= 1, "pooling window must be nonempty");
    SCDCNN_ASSERT(cfg_.n_inputs >= 2, "receptive field too small");
}

sc::Bitstream
FeatureBlock::run(const std::vector<std::vector<sc::Bitstream>> &xs,
                  const std::vector<std::vector<sc::Bitstream>> &ws,
                  sc::SngBank &bank) const
{
    SCDCNN_ASSERT(xs.size() == cfg_.pool_size && ws.size() == xs.size(),
                  "expected %zu receptive fields", cfg_.pool_size);

    // Both paths run on the fused word-parallel kernels: the operand
    // streams are handed to the XNOR+adder stage as pointers and no
    // intermediate product streams are ever materialized.
    std::vector<const sc::Bitstream *> x_ptrs(cfg_.n_inputs);
    std::vector<const sc::Bitstream *> w_ptrs(cfg_.n_inputs);
    auto gather = [&](size_t j) {
        SCDCNN_ASSERT(xs[j].size() == cfg_.n_inputs &&
                          ws[j].size() == cfg_.n_inputs,
                      "receptive field %zu has wrong size", j);
        for (size_t i = 0; i < cfg_.n_inputs; ++i) {
            x_ptrs[i] = &xs[j][i];
            w_ptrs[i] = &ws[j][i];
        }
    };

    if (!febUsesApc(cfg_.kind)) {
        // MUX path: per-field scaled inner products, stream pooling,
        // Stanh.
        std::vector<sc::Bitstream> ips;
        ips.reserve(cfg_.pool_size);
        for (size_t j = 0; j < cfg_.pool_size; ++j) {
            gather(j);
            sc::Xoshiro256ss sel = bank.makeRng();
            ips.push_back(
                MuxInnerProduct::sumProductsFused(x_ptrs, w_ptrs, sel));
        }
        sc::Bitstream pooled;
        if (cfg_.kind == FebKind::MuxAvgStanh) {
            sc::Xoshiro256ss sel = bank.makeRng();
            pooled = averagePooling(ips, sel);
        } else {
            pooled = HardwareMaxPooling::compute(ips, cfg_.segment_len);
        }
        int threshold = -1; // classic K/2
        if (cfg_.kind == FebKind::MuxMaxStanh)
            threshold = static_cast<int>(stanhMaxThreshold(state_count_));
        sc::Stanh fsm(state_count_, threshold);
        return fsm.transform(pooled);
    }

    // APC path: per-field binary counts, binary pooling, Btanh.
    std::vector<std::vector<uint16_t>> counts;
    counts.reserve(cfg_.pool_size);
    for (size_t j = 0; j < cfg_.pool_size; ++j) {
        gather(j);
        counts.push_back(ApcInnerProduct::countsFused(
            x_ptrs, w_ptrs, /*approximate=*/true));
    }
    sc::Btanh unit(state_count_, static_cast<unsigned>(cfg_.n_inputs));
    if (cfg_.kind == FebKind::ApcAvgBtanh) {
        auto steps = binaryAveragePoolingSigned(counts, cfg_.n_inputs);
        return unit.transformSigned(steps);
    }
    auto pooled = BinaryMaxPooling::compute(counts, cfg_.segment_len);
    return unit.transform(pooled);
}

double
FeatureBlock::evaluate(const std::vector<std::vector<double>> &xs,
                       const std::vector<std::vector<double>> &ws,
                       uint64_t seed) const
{
    sc::SngBank bank(seed);
    std::vector<std::vector<sc::Bitstream>> x_streams;
    std::vector<std::vector<sc::Bitstream>> w_streams;
    x_streams.reserve(xs.size());
    w_streams.reserve(ws.size());
    for (size_t j = 0; j < xs.size(); ++j) {
        SCDCNN_ASSERT(xs[j].size() == cfg_.n_inputs &&
                          ws[j].size() == cfg_.n_inputs,
                      "receptive field %zu has wrong size", j);
        x_streams.push_back(encodeBipolar(xs[j], cfg_.length, bank));
        w_streams.push_back(encodeBipolar(ws[j], cfg_.length, bank));
    }
    return run(x_streams, w_streams, bank).bipolar();
}

double
FeatureBlock::reference(const std::vector<std::vector<double>> &xs,
                        const std::vector<std::vector<double>> &ws,
                        FebKind kind)
{
    SCDCNN_ASSERT(!xs.empty() && xs.size() == ws.size(),
                  "reference needs matching field/weight sets");
    double pooled = 0;
    bool use_max = febUsesMaxPool(kind);
    if (use_max)
        pooled = -1e300;
    for (size_t j = 0; j < xs.size(); ++j) {
        double s = innerProductReference(xs[j], ws[j]);
        if (use_max)
            pooled = std::max(pooled, s);
        else
            pooled += s / static_cast<double>(xs.size());
    }
    return std::tanh(pooled);
}

} // namespace blocks
} // namespace scdcnn
