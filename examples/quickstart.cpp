/**
 * @file
 * Quickstart: the SC-DCNN building blocks in ~80 lines.
 *
 * Encodes numbers as stochastic bit-streams, multiplies with an XNOR
 * gate, sums with a MUX and an APC, applies Stanh — shows each result
 * against the exact arithmetic — and finishes by running a custom
 * network topology through the full SC engine.
 */

#include <cmath>
#include <cstdio>

#include "blocks/inner_product.h"
#include "core/sc_network.h"
#include "nn/dataset.h"
#include "nn/topology.h"
#include "sc/btanh.h"
#include "sc/counter.h"
#include "sc/ops.h"
#include "sc/sng.h"
#include "sc/stanh.h"

using namespace scdcnn;
using namespace scdcnn::sc;

int
main()
{
    const size_t len = 4096; // bit-stream length L
    SngBank bank(42);        // deterministic stream source

    // --- 1. Stochastic numbers -------------------------------------
    Bitstream a = bank.bipolar(0.4, len);
    Bitstream b = bank.bipolar(-0.6, len);
    std::printf("encode:   0.4  -> stream decodes to %+.3f\n",
                a.bipolar());
    std::printf("encode:  -0.6  -> stream decodes to %+.3f\n\n",
                b.bipolar());

    // --- 2. Multiplication is one XNOR gate ------------------------
    Bitstream prod = xnorMultiply(a, b);
    std::printf("XNOR multiply: 0.4 * -0.6 = -0.24, SC gives %+.3f\n\n",
                prod.bipolar());

    // --- 3. Scaled addition is one MUX ------------------------------
    std::vector<Bitstream> terms = {bank.bipolar(0.5, len),
                                    bank.bipolar(-0.1, len),
                                    bank.bipolar(0.3, len),
                                    bank.bipolar(0.7, len)};
    Xoshiro256ss sel = bank.makeRng();
    Bitstream sum = muxAdd(terms, sel);
    std::printf("MUX add: (0.5 - 0.1 + 0.3 + 0.7)/4 = 0.35, "
                "SC gives %+.3f\n\n", sum.bipolar());

    // --- 4. High-accuracy addition: the APC -------------------------
    std::vector<double> xs = {0.9, -0.4, 0.2, 0.8, -0.3, 0.6, 0.1, -0.7};
    std::vector<double> ws = {0.5, 0.5, -0.5, 0.25, 0.8, -0.1, 0.9, 0.3};
    auto counts = blocks::ApcInnerProduct::counts(xs, ws, len, bank,
                                                  /*approximate=*/true);
    std::printf("APC inner product: exact %.3f, SC gives %.3f\n\n",
                blocks::innerProductReference(xs, ws),
                blocks::ApcInnerProduct::decode(counts, xs.size()));

    // --- 5. Activation: the Stanh FSM -------------------------------
    Bitstream x = bank.bipolar(0.25, len);
    Stanh fsm(8); // Stanh(K, x) ~ tanh(K/2 * x)
    std::printf("Stanh(8, 0.25): tanh(1.0) = 0.762, SC gives %.3f\n",
                fsm.transform(x).bipolar());

    // --- 6. Binary-domain activation: Btanh -------------------------
    Btanh btanh(Btanh::stateCountDirect(8), 8);
    std::printf("Btanh over the APC counts: tanh(%.3f) = %.3f, "
                "SC gives %.3f\n\n",
                blocks::innerProductReference(xs, ws),
                std::tanh(blocks::innerProductReference(xs, ws)),
                btanh.transform(counts).bipolar());

    // --- 7. A custom topology through the full engine ---------------
    // The engine accepts any sequential conv/pool/fc topology: declare
    // one, build the float network, hand it to ScNetwork (which
    // derives the feature-extraction-block plan from the layer list)
    // and predict. buildLeNet5() is just a bigger spec.
    nn::TopologySpec spec;
    spec.convs = {{6, 5}}; // 6 filters of 5x5 -> 2x2 pool -> tanh
    spec.fc_hidden = {32}; // fc 32 -> tanh
    spec.n_classes = 10;   // output fc, binary domain
    nn::Network net = nn::buildTopology(spec);

    core::ScNetworkConfig cfg; // APC adders, max pooling
    cfg.bitstream_len = 256;   // short streams keep the demo quick
    core::ScNetwork engine(net, cfg);

    const nn::Tensor img = nn::DigitDataset::render(3, 7);
    core::ForwardInfo info;
    const size_t pred = engine.predict(img, 42, &info);
    std::printf("custom 1-conv topology (%zu hidden stages): "
                "class %zu, top score %+.3f over %zu bits\n\n",
                engine.stageCount(), pred, info.scores[pred],
                info.effective_bits);

    // --- 8. Micro-batches: the weight-stationary batch path ----------
    // forwardBatch runs several images through one fused pass that
    // loads each weight block once per segment word and folds it
    // against every image before advancing — same bits as per-image
    // predict() at the same seeds, cheaper per image. The ForwardInfo
    // vector carries each image's scores and consumed bits (under
    // Progressive precision, images can exit the batch mid-stream at
    // different bit counts).
    std::vector<nn::Tensor> digits;
    for (size_t d = 0; d < 4; ++d)
        digits.push_back(nn::DigitDataset::render(d, 0));
    std::vector<core::ForwardInfo> infos;
    const std::vector<size_t> preds = engine.forwardBatch(
        digits, /*seed=*/42, core::PredictOptions{}, /*pool=*/nullptr,
        &infos);
    std::printf("batch of %zu through the batch kernels:\n",
                digits.size());
    for (size_t i = 0; i < digits.size(); ++i)
        std::printf("  digit %zu -> class %zu  (top score %+.3f, "
                    "%zu bits)\n",
                    i, preds[i], infos[i].scores[preds[i]],
                    infos[i].effective_bits);

    // --- 9. The binary sibling backend -------------------------------
    // At stream length 1 a bipolar stream is a sign bit and nothing is
    // stochastic: EngineMode::Binary runs the same topology as a
    // deterministic XNOR-popcount BNN — weights and activations
    // collapsed to signs, one pass, no sampling. The seed is ignored
    // and scores are exact signed match counts (2m - n). This is the
    // backend the serving layer's Fast QoS class routes to.
    core::PredictOptions bin;
    bin.mode = core::EngineMode::Binary;
    const size_t bin_pred =
        engine.predictWith(img, /*seed=*/0, bin, &info);
    std::printf("\nbinary backend: class %zu, top score %+.0f "
                "(%zu-bit \"streams\", deterministic)\n",
                bin_pred, info.scores[bin_pred], info.effective_bits);
    return 0;
}
