#include "core/binary_net.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"
#include "nn/layers.h"
#include "nn/quantize.h"
#include "obs/trace.h"
#include "sc/fused.h"

namespace scdcnn {
namespace core {

namespace {

/** A run of @c nb window taps contiguous in the flat input, starting
 *  @c at past the window's origin. nb <= kMaxRun, so the 8 bytes from
 *  the run's first byte hold it at any bit offset; the gather reads
 *  them in memory order, hence little-endian words. */
struct TapRun
{
    size_t at;
    size_t nb;
};
constexpr size_t kMaxRun = 57;
static_assert(std::endian::native == std::endian::little,
              "the window gather reads packed words bytewise");

/**
 * Packs one window's operand bits LSB-first into @p dst: every run of
 * the packed vector @p src, then the constant +1 bias bit. @p src
 * carries one readable word past its last bit, so the 8-byte load of
 * a run near the end stays inside it (the bits read past the run are
 * masked off).
 */
void
gatherWindow(const uint64_t *src, size_t origin,
             const std::vector<TapRun> &runs, uint64_t *dst)
{
    const auto *bytes = reinterpret_cast<const unsigned char *>(src);
    uint64_t acc = 0;
    size_t fill = 0; // bits buffered in acc
    for (const TapRun &r : runs) {
        const size_t off = origin + r.at;
        uint64_t v;
        std::memcpy(&v, bytes + off / 8, sizeof v);
        const uint64_t bits =
            (v >> (off % 8)) & ((uint64_t{1} << r.nb) - 1);
        acc |= bits << fill;
        if (fill + r.nb >= 64) {
            *dst++ = acc;
            acc = bits >> (64 - fill); // fill > 0: nb < 64
            fill = fill + r.nb - 64;
        } else {
            fill += r.nb;
        }
    }
    *dst = acc | uint64_t{1} << fill; // bias input
}

} // namespace

BinaryNetwork::BinaryNetwork(const nn::Network &trained,
                             const nn::NetworkPlan &plan, Options opts)
    : plan_(plan), opts_(opts)
{
    // The plan carries geometry but not the pooling flavour; recover
    // it from the trained net's pool layers so the binary pass matches
    // the float oracle exactly.
    const std::vector<nn::StageOutline> outline =
        nn::outlineNetworkStages(trained);
    const size_t n_hidden = plan_.stages.size();
    stages_.resize(n_hidden + 1);
    for (size_t l = 0; l <= n_hidden; ++l) {
        const nn::PlanStage &st =
            l < n_hidden ? plan_.stages[l] : plan_.output;
        // The full-precision edges: the network's first stage and the
        // output layer.
        packStage(trained, st,
                  opts_.full_precision_edges && (l == 0 || l == n_hidden),
                  stages_[l]);
        if (st.pooled) {
            const auto &pool = dynamic_cast<const nn::PoolLayer &>(
                trained.layer(outline[l].pool_index));
            stages_[l].max_pool = pool.mode() == nn::PoolLayer::Mode::Max;
        }
    }
}

void
BinaryNetwork::packStage(const nn::Network &net, const nn::PlanStage &st,
                         bool fp_edge, Stage &out) const
{
    // Filter o's weight row in the layer's storage order ((channel,
    // row, column) for a conv filter, input order for a neuron) is
    // w[o * fan_in ..]: the tap order of runStage's window gather. The
    // layer's parameter accessors are non-const; they are only read.
    nn::Layer &layer = const_cast<nn::Layer &>(net.layer(st.layer_index));
    const std::vector<float> &w = *layer.weights();
    const std::vector<float> &bias = *layer.biases();
    out.st = st;
    out.n = st.fan_in + 1;

    if (fp_edge) {
        // Full-precision edge: the trained floats, no packed weights.
        out.fw.assign(w.begin(), w.end());
        out.fb.assign(bias.begin(), bias.end());
        return;
    }

    // Sign-quantized: one packed stream per filter, its fan_in taps
    // plus the bias sign as the last tap (its operand bit is the
    // constant +1).
    out.weights.reset(st.out_c, 1, out.n);
    sc::Bitstream bits(out.n);
    for (size_t o = 0; o < st.out_c; ++o) {
        bits.reset(out.n);
        for (size_t i = 0; i < st.fan_in; ++i)
            bits.set(i, nn::signQuantizeBit(w[o * st.fan_in + i]));
        bits.set(st.fan_in, nn::signQuantizeBit(bias[o]));
        out.weights.assign(o, 0, sc::BitstreamView(bits));
    }
}

void
BinaryNetwork::runStage(const Stage &sg, const std::vector<uint64_t> &x,
                        const nn::Tensor *pixels, Kernel kernel,
                        std::vector<uint64_t> &y,
                        std::vector<double> *scores) const
{
    // An fc stage is a conv stage whose kernel covers its whole input
    // grid: one output position and one window (side 1), no pooling.
    const nn::PlanStage &st = sg.st;
    const size_t side = st.pooled ? 2 : 1; // pooling window side
    const size_t windows = side * side;
    const size_t kh = st.in_h - side * st.out_h + 1;
    const size_t kw = st.in_w - side * st.out_w + 1;
    const size_t positions = st.out_h * st.out_w;
    const size_t n_out = st.out_c * positions;
    const size_t n_words = (sg.n + 63) / 64;
    const bool fp = !sg.fw.empty();
    const bool fused = kernel == Kernel::Fused;
    // The window's taps in runs contiguous in the flat input: rows of
    // kw taps, merged into whole channels on a whole-width window and
    // into one run on a whole-grid window, then cut to kMaxRun bits.
    const size_t run = kw < st.in_w   ? kw
                       : kh < st.in_h ? kh * kw
                                      : st.fan_in;
    std::vector<TapRun> runs;
    for (size_t i = 0; i < st.fan_in; i += run)
        for (size_t j = 0; j < run; j += kMaxRun)
            runs.push_back(
                {(i / (kh * kw) * st.in_h + i / kw % kh) * st.in_w + j,
                 std::min(run - j, kMaxRun)});
    // A full-precision edge multiplies the raw pixels on the network's
    // first stage and the +-1 activations after it.
    const auto value = [&](size_t t) {
        return pixels != nullptr ? static_cast<double>((*pixels)[t])
               : (x[t / 64] >> (t % 64)) & 1 ? 1.0
                                              : -1.0;
    };

    // Window pre-activations at (filter, position, window), the order
    // pooling reads: the integers 2m - n, or float dot products on a
    // full-precision edge.
    std::vector<int32_t> win(fp ? 0 : n_out * windows);
    std::vector<double> win_fp(fp ? n_out * windows : 0);
    std::vector<uint64_t> xwin(windows * n_words);
    uint32_t matches[sc::kFilterLanes];
    // Window widx of a pooling window starts corner[widx] taps past
    // the window's top-left (windows in row-major order).
    const size_t corner[4] = {0, 1, st.in_w, st.in_w + 1};
    for (size_t q = 0; q < positions; ++q) {
        // Gather each window's operand bits once per position; run r
        // of window widx starts at flat index origin + r.at.
        const size_t top_left =
            side * ((q / st.out_w) * st.in_w + q % st.out_w);
        for (size_t widx = 0; widx < windows; ++widx) {
            const size_t origin = top_left + corner[widx];
            if (fp) {
                // The float dot product over the same runs, in tap
                // order, then the bias.
                for (size_t co = 0; co < st.out_c; ++co) {
                    const double *fw = sg.fw.data() + co * st.fan_in;
                    double s = 0.0;
                    for (const TapRun &r : runs)
                        for (size_t t = 0; t < r.nb; ++t)
                            s += *fw++ * value(origin + r.at + t);
                    win_fp[(co * positions + q) * windows + widx] =
                        s + sg.fb[co];
                }
                continue;
            }
            gatherWindow(x.data(), origin, runs,
                         xwin.data() + widx * n_words);
        }
        // Every filter block against every window (no blocks on a
        // full-precision edge).
        for (size_t g = 0; g < sg.weights.groups(); ++g) {
            const sc::WeightBlockView block = sg.weights.block(g);
            for (size_t widx = 0; widx < windows; ++widx) {
                const sc::BitstreamView xv(xwin.data() + widx * n_words,
                                           sg.n);
                if (fused)
                    sc::fusedXnorPopcountMulti(xv, block, matches);
                else
                    sc::referenceXnorPopcountMulti(xv, block, matches);
                for (size_t f = 0; f < block.lanes; ++f) {
                    const size_t co = g * sc::kFilterLanes + f;
                    win[(co * positions + q) * windows + widx] =
                        2 * static_cast<int32_t>(matches[f]) -
                        static_cast<int32_t>(sg.n);
                }
            }
        }
    }

    // Pool, then report (the output layer) or activate (hidden).
    std::vector<int32_t> pre;
    if (fp) {
        // The binary pooling rules on the double values; the sign the
        // activation reads survives the cast to {0, -1}.
        std::vector<double> pre_fp(n_out);
        pre.resize(n_out);
        for (size_t p = 0; p < n_out; ++p) {
            const double *w = win_fp.data() + p * windows;
            double acc = w[0];
            for (size_t i = 1; i < windows; ++i)
                acc = sg.max_pool ? std::max(acc, w[i]) : acc + w[i];
            pre_fp[p] = acc;
            pre[p] = acc >= 0.0 ? 0 : -1;
        }
        if (scores != nullptr) {
            *scores = std::move(pre_fp);
            return;
        }
    } else if (windows == 1) {
        pre = std::move(win);
    } else {
        pre.resize(n_out);
        if (fused)
            sc::fusedBinaryPool4(win.data(), n_out, sg.max_pool,
                                 pre.data());
        else
            sc::referenceBinaryPool4(win.data(), n_out, sg.max_pool,
                                     pre.data());
    }
    if (scores != nullptr) {
        scores->assign(pre.begin(), pre.end());
        return;
    }
    y.resize((n_out + 63) / 64 + 1); // + gatherWindow's pad word
    if (fused)
        sc::fusedSignPack(pre.data(), n_out, y.data());
    else
        sc::referenceSignPack(pre.data(), n_out, y.data());
}

size_t
BinaryNetwork::predict(const nn::Tensor &image, std::vector<double> *scores,
                       Kernel kernel) const
{
    SCDCNN_ASSERT(image.channels() == plan_.in_c &&
                      image.height() == plan_.in_h &&
                      image.width() == plan_.in_w,
                  "image geometry does not match the plan");
    const bool traced = obs::armed();
    const uint64_t t0 =
        traced ? obs::TraceRecorder::instance().nowNs() : 0;

    // The first stage's operand bits: the pixels binarized at the
    // midpoint, in the tensor's flat (c, y, x) order.
    std::vector<uint64_t> x((image.size() + 63) / 64 + 1), y; // + pad word
    for (size_t w = 0; w + 1 < x.size(); ++w)
        for (size_t b = 0; b < 64 && 64 * w + b < image.size(); ++b)
            x[w] |= uint64_t{binarizePixel(image[64 * w + b])} << b;
    std::vector<double> out_scores;
    for (size_t l = 0; l < stages_.size(); ++l) {
        const bool output = l + 1 == stages_.size();
        runStage(stages_[l], x, l == 0 ? &image : nullptr, kernel, y,
                 output ? &out_scores : nullptr);
        x.swap(y);
    }

    // First maximum wins, as in the SC engine.
    const size_t pred = static_cast<size_t>(
        std::max_element(out_scores.begin(), out_scores.end()) -
        out_scores.begin());
    if (scores != nullptr)
        *scores = std::move(out_scores);
    if (traced) {
        obs::TraceRecorder &rec = obs::TraceRecorder::instance();
        rec.spanComplete(obs::SpanName::BinaryForward, t0,
                         rec.nowNs() - t0);
    }
    return pred;
}

} // namespace core
} // namespace scdcnn
