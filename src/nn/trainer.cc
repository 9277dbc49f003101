#include "nn/trainer.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <system_error>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "sc/rng.h"

namespace scdcnn {
namespace nn {

Trainer::Trainer(Network &net, TrainConfig cfg) : net_(net), cfg_(cfg)
{
    for (size_t i = 0; i < net_.layerCount(); ++i) {
        auto *w = net_.layer(i).weights();
        auto *b = net_.layer(i).biases();
        w_velocity_.emplace_back(w != nullptr ? w->size() : 0, 0.0f);
        b_velocity_.emplace_back(b != nullptr ? b->size() : 0, 0.0f);
    }
}

void
Trainer::applyUpdate(double lr)
{
    for (size_t i = 0; i < net_.layerCount(); ++i) {
        auto *w = net_.layer(i).weights();
        auto *wg = net_.layer(i).weightGrads();
        if (w != nullptr && wg != nullptr) {
            auto &vel = w_velocity_[i];
            for (size_t j = 0; j < w->size(); ++j) {
                vel[j] = static_cast<float>(cfg_.momentum * vel[j] -
                                            lr * (*wg)[j]);
                (*w)[j] += vel[j];
            }
        }
        auto *b = net_.layer(i).biases();
        auto *bg = net_.layer(i).biasGrads();
        if (b != nullptr && bg != nullptr) {
            auto &vel = b_velocity_[i];
            for (size_t j = 0; j < b->size(); ++j) {
                vel[j] = static_cast<float>(cfg_.momentum * vel[j] -
                                            lr * (*bg)[j]);
                (*b)[j] += vel[j];
            }
        }
    }
}

double
Trainer::train(const Dataset &train)
{
    SCDCNN_ASSERT(train.size() > 0, "empty training set");

    const size_t n_workers =
        std::max<size_t>(1, ThreadPool::global().size());
    std::vector<Network> workers(n_workers, net_);

    std::vector<size_t> order(train.size());
    std::iota(order.begin(), order.end(), 0);
    sc::Xoshiro256ss shuffle_rng(cfg_.shuffle_seed);

    double lr = cfg_.learning_rate;
    double last_epoch_loss = 0;

    for (size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
        // Fisher-Yates with our deterministic generator.
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1],
                      order[shuffle_rng.nextBelow(i)]);

        double epoch_loss = 0;
        size_t n_batches = 0;
        for (size_t start = 0; start < train.size();
             start += cfg_.batch_size) {
            const size_t end =
                std::min(train.size(), start + cfg_.batch_size);
            for (auto &w : workers) {
                w.copyParamsFrom(net_);
                w.zeroGrads();
            }

            std::vector<double> losses(n_workers, 0.0);
            const size_t span = end - start;
            const size_t chunk = (span + n_workers - 1) / n_workers;
            parallelFor(0, n_workers, [&](size_t wi) {
                Network &w = workers[wi];
                const size_t lo = start + wi * chunk;
                const size_t hi = std::min(end, lo + chunk);
                for (size_t s = lo; s < hi; ++s) {
                    const Sample &sample = train.samples[order[s]];
                    Tensor logits = w.forward(sample.image);
                    Tensor dlogits;
                    losses[wi] += softmaxCrossEntropy(logits,
                                                      sample.label,
                                                      dlogits);
                    // Average the batch gradient.
                    for (auto &g : dlogits.data())
                        g /= static_cast<float>(span);
                    w.backward(dlogits);
                }
            });

            net_.zeroGrads();
            for (const auto &w : workers)
                net_.addGradsFrom(w);
            applyUpdate(lr);

            for (double l : losses)
                epoch_loss += l;
            ++n_batches;
        }
        epoch_loss /= static_cast<double>(train.size());
        last_epoch_loss = epoch_loss;
        if (cfg_.verbose)
            inform("epoch %zu/%zu: loss %.4f (lr %.4f)", epoch + 1,
                   cfg_.epochs, epoch_loss, lr);
        lr *= cfg_.lr_decay;
    }
    return last_epoch_loss;
}

double
Trainer::errorRate(Network &net, const Dataset &ds)
{
    SCDCNN_ASSERT(ds.size() > 0, "empty evaluation set");
    const size_t n_workers =
        std::max<size_t>(1, ThreadPool::global().size());
    std::vector<Network> workers(n_workers, net);
    std::vector<size_t> wrong(n_workers, 0);
    const size_t chunk = (ds.size() + n_workers - 1) / n_workers;
    parallelFor(0, n_workers, [&](size_t wi) {
        const size_t lo = wi * chunk;
        const size_t hi = std::min(ds.size(), lo + chunk);
        for (size_t i = lo; i < hi; ++i)
            if (workers[wi].predict(ds.samples[i].image) !=
                ds.samples[i].label)
                ++wrong[wi];
    });
    size_t total_wrong = 0;
    for (size_t w : wrong)
        total_wrong += w;
    return static_cast<double>(total_wrong) /
           static_cast<double>(ds.size());
}

namespace {

size_t
envSizeT(const char *name, size_t fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end == v || parsed == 0)
        return fallback;
    return static_cast<size_t>(parsed);
}

} // namespace

Network
trainedLeNet5(PoolingMode pooling, const std::string &data_dir,
              const std::string &cache_dir)
{
    const std::string cache_path =
        cache_dir + (pooling == PoolingMode::Max ? "/lenet5_max.weights"
                                                 : "/lenet5_avg.weights");
    Network net = buildLeNet5(pooling, /*seed=*/1);
    if (net.loadWeights(cache_path)) {
        inform("loaded trained weights from %s", cache_path.c_str());
        return net;
    }

    const size_t n_train = envSizeT("SCDCNN_TRAIN_IMAGES", 4000);
    const size_t epochs = envSizeT("SCDCNN_TRAIN_EPOCHS", 6);
    inform("training LeNet5 (%s pooling) on %zu images, %zu epochs...",
           pooling == PoolingMode::Max ? "max" : "avg", n_train, epochs);

    Dataset train, test;
    loadDigits(data_dir, n_train, 500, train, test);
    TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.verbose = true;
    Trainer trainer(net, cfg);
    trainer.train(train);
    const double err = Trainer::errorRate(net, test);
    inform("trained LeNet5: test error %.2f%%", err * 100.0);

    // The cache directory may not exist yet (a bench run from a fresh
    // build directory); without it every run would retrain.
    std::error_code ec;
    std::filesystem::create_directories(cache_dir, ec);
    if (!net.saveWeights(cache_path))
        warn("could not persist weights to %s", cache_path.c_str());
    return net;
}

double
softwareBaselineError(Network &net, const std::string &data_dir,
                      size_t n_test)
{
    Dataset train, test;
    loadDigits(data_dir, 1, n_test, train, test);
    return Trainer::errorRate(net, test);
}

} // namespace nn
} // namespace scdcnn
