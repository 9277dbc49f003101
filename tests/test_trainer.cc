/**
 * @file
 * Tests for the SGD trainer: loss decreases, learns the synthetic
 * digits, deterministic, the error-rate evaluator is correct, and the
 * trained-LeNet5 cache persists into a directory it has to create.
 */

#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "nn/dataset.h"
#include "nn/network.h"
#include "nn/trainer.h"

namespace scdcnn {
namespace nn {
namespace {

TEST(Trainer, LossDecreasesOverTraining)
{
    Dataset train = DigitDataset::generate(300, 5);
    Network net = buildMiniLeNet(PoolingMode::Max, 1);

    TrainConfig one_epoch;
    one_epoch.epochs = 1;
    double first = Trainer(net, one_epoch).train(train);

    Network net2 = buildMiniLeNet(PoolingMode::Max, 1);
    TrainConfig three_epochs;
    three_epochs.epochs = 3;
    double third = Trainer(net2, three_epochs).train(train);
    EXPECT_LT(third, first);
}

TEST(Trainer, LearnsTheSyntheticDigits)
{
    Dataset train = DigitDataset::generate(1500, 6);
    Dataset test = DigitDataset::generate(200, 7);
    Network net = buildMiniLeNet(PoolingMode::Max, 2);
    TrainConfig cfg;
    cfg.epochs = 5;
    Trainer(net, cfg).train(train);
    // Far better than the 90% random-guess rate after a short run.
    EXPECT_LT(Trainer::errorRate(net, test), 0.12);
}

TEST(Trainer, DeterministicAcrossRuns)
{
    Dataset train = DigitDataset::generate(100, 8);
    Network a = buildMiniLeNet(PoolingMode::Average, 3);
    Network b = buildMiniLeNet(PoolingMode::Average, 3);
    TrainConfig cfg;
    cfg.epochs = 1;
    Trainer(a, cfg).train(train);
    Trainer(b, cfg).train(train);
    EXPECT_EQ(*a.layer(0).weights(), *b.layer(0).weights());
}

TEST(Trainer, ErrorRateCountsMispredictions)
{
    // An untrained network on balanced data sits near 90% error.
    Dataset test = DigitDataset::generate(200, 9);
    Network net = buildMiniLeNet(PoolingMode::Max, 4);
    double err = Trainer::errorRate(net, test);
    EXPECT_GT(err, 0.5);
    EXPECT_LE(err, 1.0);
}

TEST(Trainer, AvgPoolingVariantAlsoLearns)
{
    // The average-pooling variant converges more slowly under the
    // scaled activation; give it a couple more epochs.
    Dataset train = DigitDataset::generate(600, 10);
    Dataset test = DigitDataset::generate(200, 11);
    Network net = buildMiniLeNet(PoolingMode::Average, 5);
    TrainConfig cfg;
    cfg.epochs = 6;
    Trainer(net, cfg).train(train);
    EXPECT_LT(Trainer::errorRate(net, test), 0.15);
}

TEST(Trainer, TrainedLeNet5CreatesItsCacheDirectory)
{
    // A tiny training run into a nested cache directory that does not
    // exist yet: the weights must persist there, so the second call
    // loads them instead of retraining.
    namespace fs = std::filesystem;
    const fs::path root = fs::path(::testing::TempDir()) /
                          ("lenet5_cache_" + std::to_string(::getpid()));
    const fs::path cache = root / "nested" / "data";
    fs::remove_all(root);
    ASSERT_FALSE(fs::exists(cache));
    ::setenv("SCDCNN_TRAIN_IMAGES", "20", 1);
    ::setenv("SCDCNN_TRAIN_EPOCHS", "1", 1);

    Network trained = trainedLeNet5(PoolingMode::Max, cache.string(),
                                    cache.string());
    EXPECT_TRUE(fs::exists(cache / "lenet5_max.weights"));
    Network cached = trainedLeNet5(PoolingMode::Max, cache.string(),
                                   cache.string());
    ::unsetenv("SCDCNN_TRAIN_IMAGES");
    ::unsetenv("SCDCNN_TRAIN_EPOCHS");
    ASSERT_EQ(trained.layerCount(), cached.layerCount());
    for (size_t i = 0; i < trained.layerCount(); ++i) {
        const std::vector<float> *w = trained.layer(i).weights();
        if (w != nullptr) {
            EXPECT_EQ(*w, *cached.layer(i).weights()) << "layer " << i;
        }
    }
    fs::remove_all(root);
}

} // namespace
} // namespace nn
} // namespace scdcnn
