#include "sc/counter.h"

#include "common/logging.h"
#include "sc/fused.h"
#include "sc/sng.h"

namespace scdcnn {
namespace sc {

namespace {

/** Column counts of raw lines: one fold over a one-filter block whose
 *  weight row is all ones (x XNOR 1 = x). */
std::vector<uint16_t>
lineCounts(const std::vector<const Bitstream *> &streams, bool approximate)
{
    SCDCNN_ASSERT(!streams.empty(), "counter called with zero streams");
    const size_t len = streams[0]->length();
    const Bitstream ones = constantStream(true, len);
    InterleavedWeightArena arena;
    arena.reset(1, streams.size(), len);
    for (size_t t = 0; t < streams.size(); ++t)
        arena.assign(0, t, ones);
    const WeightBlockView block = arena.block(0);
    std::vector<uint16_t> out(len);
    fusedProductCountsMulti(toViews(streams), block, approximate, 0,
                            block.wordCount(), out.data(), len);
    return out;
}

} // namespace

std::vector<uint16_t>
ParallelCounter::counts(const std::vector<const Bitstream *> &streams)
{
    return lineCounts(streams, /*approximate=*/false);
}

std::vector<uint16_t>
ParallelCounter::counts(const std::vector<Bitstream> &streams)
{
    return counts(toPointers(streams));
}

uint64_t
ParallelCounter::totalOnes(const std::vector<Bitstream> &streams)
{
    uint64_t total = 0;
    for (const auto &s : streams)
        total += s.countOnes();
    return total;
}

std::vector<uint16_t>
ApproxParallelCounter::counts(const std::vector<const Bitstream *> &streams)
{
    return lineCounts(streams, /*approximate=*/true);
}

std::vector<uint16_t>
ApproxParallelCounter::counts(const std::vector<Bitstream> &streams)
{
    return counts(toPointers(streams));
}

unsigned
ApproxParallelCounter::outputBits(size_t n_inputs)
{
    unsigned bits = 0;
    while ((size_t{1} << bits) < n_inputs + 1)
        ++bits;
    return bits;
}

} // namespace sc
} // namespace scdcnn
