/**
 * @file
 * Minibatch SGD trainer for the float reference network.
 *
 * Deterministic (fixed shuffle and init seeds) and data-parallel: the
 * batch is split across worker clones whose gradients are reduced into
 * the master before each update, so results do not depend on the
 * worker count.
 */

#ifndef SCDCNN_NN_TRAINER_H
#define SCDCNN_NN_TRAINER_H

#include <cstdint>
#include <string>

#include "nn/dataset.h"
#include "nn/network.h"

namespace scdcnn {
namespace nn {

/** Training hyper-parameters. */
struct TrainConfig
{
    size_t epochs = 6;
    size_t batch_size = 32;
    double learning_rate = 0.05;
    double momentum = 0.9;
    double lr_decay = 0.85;  //!< multiplicative, per epoch
    uint64_t shuffle_seed = 12345;
    bool verbose = false;
};

/**
 * SGD-with-momentum trainer.
 */
class Trainer
{
  public:
    Trainer(Network &net, TrainConfig cfg);

    /** Train on @p train; returns the final average training loss. */
    double train(const Dataset &train);

    /** Classification error rate on @p ds, in [0, 1]. */
    static double errorRate(Network &net, const Dataset &ds);

  private:
    void applyUpdate(double lr);

    Network &net_;
    TrainConfig cfg_;
    std::vector<std::vector<float>> w_velocity_;
    std::vector<std::vector<float>> b_velocity_;
};

/**
 * Train-once cache: returns a LeNet5 with trained weights, training
 * and persisting to @p cache_path on first use. Environment variables
 * SCDCNN_TRAIN_IMAGES / SCDCNN_TRAIN_EPOCHS override the defaults.
 *
 * @param pooling   pooling flavour (the cache is per flavour)
 * @param data_dir  dataset directory (MNIST if present)
 * @param cache_dir directory for the weight cache files (created,
 *                  parents included, when missing)
 */
Network trainedLeNet5(PoolingMode pooling, const std::string &data_dir,
                      const std::string &cache_dir);

/** The baseline (software) test error of a trained network on the
 *  standard test set. */
double softwareBaselineError(Network &net, const std::string &data_dir,
                             size_t n_test = 2000);

} // namespace nn
} // namespace scdcnn

#endif // SCDCNN_NN_TRAINER_H
