#include "blocks/inner_product.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "sc/counter.h"
#include "sc/fused.h"
#include "sc/ops.h"

namespace scdcnn {
namespace blocks {

namespace {

/** One filter's weight streams @p ws, copied into @p arena as the
 *  one-lane block the filter-blocked kernels of sc/fused.h take. */
sc::WeightBlockView
oneFilterBlock(const std::vector<const sc::Bitstream *> &xs,
               const std::vector<const sc::Bitstream *> &ws,
               sc::InterleavedWeightArena &arena)
{
    SCDCNN_ASSERT(xs.size() == ws.size() && !xs.empty(),
                  "fused block needs matching nonzero operand counts");
    arena.reset(1, ws.size(), ws[0]->length());
    for (size_t t = 0; t < ws.size(); ++t)
        arena.assign(0, t, *ws[t]);
    return arena.block(0);
}

} // namespace

std::vector<sc::Bitstream>
productStreams(const std::vector<sc::Bitstream> &xs,
               const std::vector<sc::Bitstream> &ws)
{
    SCDCNN_ASSERT(xs.size() == ws.size() && !xs.empty(),
                  "product streams need matching nonzero operand counts");
    std::vector<sc::Bitstream> products;
    products.reserve(xs.size());
    for (size_t i = 0; i < xs.size(); ++i)
        products.push_back(sc::xnorMultiply(xs[i], ws[i]));
    return products;
}

std::vector<sc::Bitstream>
encodeBipolar(const std::vector<double> &values, size_t length,
              sc::SngBank &bank)
{
    std::vector<sc::Bitstream> streams;
    streams.reserve(values.size());
    for (double v : values)
        streams.push_back(bank.bipolar(v, length));
    return streams;
}

double
innerProductReference(const std::vector<double> &xs,
                      const std::vector<double> &ws)
{
    SCDCNN_ASSERT(xs.size() == ws.size(), "operand count mismatch");
    double s = 0;
    for (size_t i = 0; i < xs.size(); ++i)
        s += xs[i] * ws[i];
    return s;
}

sc::Bitstream
MuxInnerProduct::sumProducts(const std::vector<sc::Bitstream> &products,
                             sc::Xoshiro256ss &sel)
{
    return sc::muxAdd(products, sel);
}

sc::Bitstream
MuxInnerProduct::sumProductsFused(
    const std::vector<const sc::Bitstream *> &xs,
    const std::vector<const sc::Bitstream *> &ws, sc::Xoshiro256ss &sel)
{
    sc::InterleavedWeightArena arena;
    const sc::WeightBlockView block = oneFilterBlock(xs, ws, arena);
    std::vector<uint16_t> selects;
    sc::fillMuxSelects(xs.size(), block.length, sel, selects);
    sc::Bitstream out(block.length);
    sc::fusedMuxProductMulti(sc::toViews(xs), block, selects, 0,
                             block.wordCount(), out.mutableWords().data(),
                             block.wordCount());
    return out;
}

sc::Bitstream
MuxInnerProduct::compute(const std::vector<double> &xs,
                         const std::vector<double> &ws, size_t length,
                         sc::SngBank &bank)
{
    auto x_streams = encodeBipolar(xs, length, bank);
    auto w_streams = encodeBipolar(ws, length, bank);
    sc::Xoshiro256ss sel = bank.makeRng();
    return sumProductsFused(sc::toPointers(x_streams),
                            sc::toPointers(w_streams),
                            sel);
}

double
MuxInnerProduct::estimate(const std::vector<double> &xs,
                          const std::vector<double> &ws, size_t length,
                          sc::SngBank &bank)
{
    return compute(xs, ws, length, bank).bipolar() *
           static_cast<double>(xs.size());
}

std::vector<uint16_t>
ApcInnerProduct::counts(const std::vector<sc::Bitstream> &products,
                        bool approximate)
{
    if (approximate)
        return sc::ApproxParallelCounter::counts(products);
    return sc::ParallelCounter::counts(products);
}

std::vector<uint16_t>
ApcInnerProduct::countsFused(const std::vector<const sc::Bitstream *> &xs,
                             const std::vector<const sc::Bitstream *> &ws,
                             bool approximate)
{
    sc::InterleavedWeightArena arena;
    const sc::WeightBlockView block = oneFilterBlock(xs, ws, arena);
    std::vector<uint16_t> out(block.length);
    sc::fusedProductCountsMulti(sc::toViews(xs), block, approximate, 0,
                                block.wordCount(), out.data(),
                                block.length);
    return out;
}

std::vector<uint16_t>
ApcInnerProduct::counts(const std::vector<double> &xs,
                        const std::vector<double> &ws, size_t length,
                        sc::SngBank &bank, bool approximate)
{
    auto x_streams = encodeBipolar(xs, length, bank);
    auto w_streams = encodeBipolar(ws, length, bank);
    return countsFused(sc::toPointers(x_streams),
                       sc::toPointers(w_streams),
                       approximate);
}

double
ApcInnerProduct::decode(const std::vector<uint16_t> &counts, size_t n)
{
    SCDCNN_ASSERT(!counts.empty(), "decoding empty count sequence");
    const auto total = std::accumulate(counts.begin(), counts.end(),
                                       uint64_t{0});
    const double len = static_cast<double>(counts.size());
    return (2.0 * static_cast<double>(total) -
            static_cast<double>(n) * len) / len;
}

double
OrInnerProduct::estimateUnipolar(const std::vector<double> &xs,
                                 const std::vector<double> &ws,
                                 double scale, size_t length,
                                 sc::SngBank &bank)
{
    SCDCNN_ASSERT(xs.size() == ws.size() && !xs.empty(), "bad operands");
    SCDCNN_ASSERT(scale >= 1.0, "pre-scale factor must be >= 1");
    // Hardware pre-scales the inputs so every product stream carries
    // x*w/scale; with sparse ones the OR approximates their sum.
    std::vector<sc::Bitstream> products;
    products.reserve(xs.size());
    for (size_t i = 0; i < xs.size(); ++i)
        products.push_back(bank.unipolar(xs[i] * ws[i] / scale, length));
    return sc::orAdd(products).unipolar() * scale;
}

double
OrInnerProduct::estimateBipolar(const std::vector<double> &xs,
                                const std::vector<double> &ws,
                                double scale, size_t length,
                                sc::SngBank &bank)
{
    SCDCNN_ASSERT(xs.size() == ws.size() && !xs.empty(), "bad operands");
    SCDCNN_ASSERT(scale >= 1.0, "pre-scale factor must be >= 1");
    // Bipolar encoding keeps ~50% ones near zero values, so pre-scaling
    // cannot make the streams sparse — the inaccuracy Table 1 reports.
    std::vector<sc::Bitstream> products;
    products.reserve(xs.size());
    for (size_t i = 0; i < xs.size(); ++i)
        products.push_back(bank.bipolar(xs[i] * ws[i] / scale, length));
    return sc::orAdd(products).bipolar() * scale;
}

std::vector<double>
OrInnerProduct::scaleCandidates(size_t n)
{
    std::vector<double> scales;
    for (double s = 1.0; s <= static_cast<double>(4 * n); s *= 2.0)
        scales.push_back(s);
    return scales;
}

} // namespace blocks
} // namespace scdcnn
