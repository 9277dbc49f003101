/**
 * @file
 * Binary (XNOR-popcount) sibling backend of the SC engine.
 *
 * SC networks and binary neural networks are two points on one design
 * space: an SC bitstream of length L = 1 is a single sign bit, the
 * XNOR multiplier is exact, and the APC inner product collapses to a
 * popcount — so the whole SC machinery (the derived network plan, the
 * packed-word layout, the filter-interleaved weight arenas, the
 * blocked XNOR kernels) re-executes as a BNN by fixing L = 1 and
 * replacing the Btanh FSM with a popcount-sign activation. That is
 * what this backend does:
 *
 *  - weights and biases are sign-quantized (nn::signQuantizeBit) and
 *    packed one bit per tap into an InterleavedWeightArena of
 *    single-word-striped streams (taps = 1, length = fan_in + 1 with
 *    the bias as the last tap against a constant +1 input bit);
 *  - input pixels binarize at the unipolar midpoint (x >= 0.5 — the
 *    SC encoder treats pixels as [0, 1] values, so midpoint
 *    thresholding is the sign of the centered pixel);
 *  - an n-tap inner product is the XNOR match count m computed by
 *    sc::fusedXnorPopcountMulti, giving the integer pre-activation
 *    s = 2m - n (the bipolar sum, exactly the SC score formula at
 *    L = 1);
 *  - pooling runs on the four window pre-activations in FEB order
 *    (inner product -> pool -> activation): max pooling keeps the
 *    max, average pooling keeps the sum (same sign as the mean, which
 *    is all the sign activation consumes);
 *  - the activation is sign(s) with ties to +1, packed straight back
 *    into the next layer's operand bits;
 *  - the output layer reports the integer scores s_o per class.
 *
 * Every stage (hidden conv, hidden fc, output) runs through one
 * stage function; an fc stage is a conv whose kernel covers its whole
 * input grid. Activations are one packed bit vector in flat (c, y, x)
 * order, so grid widths are not limited.
 *
 * The forward pass is fully deterministic (no stream sampling), so
 * the backend is differentially tested for *exact* equality against a
 * float sign-network oracle across the randomized topology corpus,
 * and every kernel has a bit-serial reference twin (Kernel::Reference
 * swaps all of them in at once, the engine-level twin the fuzz tests
 * assert bit-exact).
 *
 * The optional full-precision-edges mode keeps the network's first
 * stage (float weights on raw pixels) and the output layer (float
 * weights on +-1 activations; on raw pixels when there is no hidden
 * stage) in double arithmetic — the standard BNN accuracy recovery —
 * with the fixed (ci, ky, kx)-then-bias accumulation order shared by
 * the oracle. Only the window's dot product differs; pooling and the
 * sign follow the binary rules on the double values.
 */

#ifndef SCDCNN_CORE_BINARY_NET_H
#define SCDCNN_CORE_BINARY_NET_H

#include <cstdint>
#include <vector>

#include "nn/network.h"
#include "nn/tensor.h"
#include "nn/topology.h"
#include "sc/bitstream.h"

namespace scdcnn {
namespace core {

class BinaryNetwork
{
  public:
    /** Which kernel family a forward pass runs: the word-parallel
     *  fused kernels (AVX2-dispatched) or their bit-serial reference
     *  twins. Results are bit-exact across both. */
    enum class Kernel
    {
        Fused,
        Reference,
    };

    struct Options
    {
        /** Keep the network's first stage and the output layer in
         *  double precision (float weights, raw input pixels, +-1
         *  hidden activations) instead of sign-quantizing them — the
         *  first/last-layer accuracy option. Hidden activations stay
         *  binary either way. */
        bool full_precision_edges = false;
    };

    /**
     * Build from the trained float network (sign quantization reads
     * the *unquantized* weights) and its derived plan. The plan must
     * have been derived from @p trained.
     */
    BinaryNetwork(const nn::Network &trained, const nn::NetworkPlan &plan,
                  Options opts);

    /** Default options: sign-quantize every layer. */
    BinaryNetwork(const nn::Network &trained, const nn::NetworkPlan &plan)
        : BinaryNetwork(trained, plan, Options())
    {
    }

    /**
     * Forward pass + argmax (first maximum wins, as the SC engine).
     * When @p scores is non-null it receives the per-class output
     * sums: integers 2m - n as doubles in pure binary mode, double
     * dot products under full-precision edges.
     */
    size_t predict(const nn::Tensor &image,
                   std::vector<double> *scores = nullptr,
                   Kernel kernel = Kernel::Fused) const;

    const nn::NetworkPlan &plan() const { return plan_; }

    bool fullPrecisionEdges() const { return opts_.full_precision_edges; }

    /** The input binarization contract: pixel bit = (x >= 0.5). */
    static bool binarizePixel(float x) { return x >= 0.5f; }

  private:
    /** One stage: a hidden conv or fc stage, or the output layer. */
    struct Stage
    {
        nn::PlanStage st;
        size_t n = 0; //!< operand bits, fan_in + 1 (bias included)
        /** Pooling flavour of the trained net's pool layer (pooled
         *  stages only): max keeps the max window pre-activation,
         *  average keeps the window sum (sign-equivalent to mean). */
        bool max_pool = false;
        /** Sign weights: filter f's fan_in + 1 bits (its weight row in
         *  the layer's storage order, bias last) as one single-tap
         *  interleaved stream. Empty on a full-precision edge. */
        sc::InterleavedWeightArena weights;
        /** The trained float parameters, kept only on a
         *  full-precision edge (the first stage / the output layer). */
        std::vector<double> fw; //!< [filter][fan_in], storage order
        std::vector<double> fb; //!< [filter]
    };

    void packStage(const nn::Network &net, const nn::PlanStage &st,
                   bool fp_edge, Stage &out) const;

    /**
     * Run one stage over @p x, its packed input bits in flat (c, y, x)
     * order (@p pixels: the image on the first stage, else null; a
     * full-precision first stage reads it instead). A hidden stage
     * sign-packs its pooled pre-activations into @p y; the output
     * layer writes its scores into non-null @p scores instead.
     */
    void runStage(const Stage &sg, const std::vector<uint64_t> &x,
                  const nn::Tensor *pixels, Kernel kernel,
                  std::vector<uint64_t> &y,
                  std::vector<double> *scores) const;

    nn::NetworkPlan plan_;
    Options opts_;
    /** The hidden stages in plan order, then the output layer. */
    std::vector<Stage> stages_;
};

} // namespace core
} // namespace scdcnn

#endif // SCDCNN_CORE_BINARY_NET_H
