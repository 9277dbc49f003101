#include "core/sc_config.h"

#include <cstdio>

#include "common/logging.h"

namespace scdcnn {
namespace core {

std::string
adderKindName(AdderKind kind)
{
    return kind == AdderKind::Mux ? "MUX" : "APC";
}

AdderKind
ScNetworkConfig::adderFor(size_t paper_group) const
{
    SCDCNN_ASSERT(paper_group < 3, "paper group %zu out of range",
                  paper_group);
    return layer_adders[paper_group];
}

blocks::FebKind
ScNetworkConfig::febKindFor(size_t paper_group, bool pooled) const
{
    const bool mux = adderFor(paper_group) == AdderKind::Mux;
    const bool max_pool = pooling == nn::PoolingMode::Max && pooled;
    if (mux) {
        return max_pool ? blocks::FebKind::MuxMaxStanh
                        : blocks::FebKind::MuxAvgStanh;
    }
    return max_pool ? blocks::FebKind::ApcMaxBtanh
                    : blocks::FebKind::ApcAvgBtanh;
}

std::string
ScNetworkConfig::describe() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s L=%zu %s-%s-%s",
                  pooling == nn::PoolingMode::Max ? "max" : "avg",
                  bitstream_len,
                  adderKindName(layer_adders[0]).c_str(),
                  adderKindName(layer_adders[1]).c_str(),
                  adderKindName(layer_adders[2]).c_str());
    return std::string(buf);
}

std::vector<Table6Entry>
table6Entries()
{
    using nn::PoolingMode;
    constexpr AdderKind M = AdderKind::Mux;
    constexpr AdderKind A = AdderKind::Apc;

    struct Raw
    {
        int no;
        PoolingMode pool;
        size_t len;
        AdderKind l0, l1, l2;
        double inacc, area, power, delay, energy;
    };
    const Raw rows[] = {
        {1, PoolingMode::Max, 1024, M, M, A, 2.64, 19.1, 1.74, 5120, 8.9},
        {2, PoolingMode::Max, 1024, M, A, A, 2.23, 22.9, 2.13, 5120, 10.9},
        {3, PoolingMode::Max, 512, A, M, A, 1.91, 32.7, 3.14, 2560, 8.0},
        {4, PoolingMode::Max, 512, A, A, A, 1.68, 36.4, 3.53, 2560, 9.0},
        {5, PoolingMode::Max, 256, A, M, A, 2.13, 32.7, 3.14, 1280, 4.0},
        {6, PoolingMode::Max, 256, A, A, A, 1.74, 36.4, 3.53, 1280, 4.5},
        {7, PoolingMode::Average, 1024, M, A, A, 3.06, 17.0, 1.53, 5120,
         7.8},
        {8, PoolingMode::Average, 1024, A, A, A, 2.58, 22.1, 2.14, 5120,
         11.0},
        {9, PoolingMode::Average, 512, M, A, A, 3.16, 17.0, 1.53, 2560,
         3.9},
        {10, PoolingMode::Average, 512, A, A, A, 2.65, 22.1, 2.14, 2560,
         5.5},
        {11, PoolingMode::Average, 256, M, A, A, 3.36, 17.0, 1.53, 1280,
         2.0},
        {12, PoolingMode::Average, 256, A, A, A, 2.76, 22.1, 2.14, 1280,
         2.7},
    };

    std::vector<Table6Entry> entries;
    for (const Raw &r : rows) {
        Table6Entry e;
        e.number = r.no;
        e.config.pooling = r.pool;
        e.config.layer_adders = {r.l0, r.l1, r.l2};
        e.config.bitstream_len = r.len;
        e.paper_inaccuracy_pct = r.inacc;
        e.paper_area_mm2 = r.area;
        e.paper_power_w = r.power;
        e.paper_delay_ns = r.delay;
        e.paper_energy_uj = r.energy;
        entries.push_back(e);
    }
    return entries;
}

hw::Lenet5HwConfig
toHwConfig(const ScNetworkConfig &cfg)
{
    hw::Lenet5HwConfig hw_cfg;
    // The fixed Table 6 shape: layers 0/1 are pooled conv blocks,
    // layer 2 the fc group.
    hw_cfg.layer_kinds = {cfg.febKindFor(0, true), cfg.febKindFor(1, true),
                          cfg.febKindFor(2, false)};
    hw_cfg.weight_bits = cfg.weight_bits;
    hw_cfg.bitstream_len = cfg.bitstream_len;
    hw_cfg.segment_len = cfg.segment_len;
    return hw_cfg;
}

} // namespace core
} // namespace scdcnn
