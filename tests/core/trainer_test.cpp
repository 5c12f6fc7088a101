#include "core/trainer.h"

#include <gtest/gtest.h>

#include "core/brnn.h"
#include "dataset/generator.h"
#include "nn/activation_layers.h"
#include "nn/linear_layer.h"
#include "nn/sequential.h"

namespace hotspot::core {
namespace {

using tensor::Tensor;

// A small image dataset where the label is simply "more than half the
// pixels set" — easy enough for a linear model to learn in a few epochs.
dataset::HotspotDataset coverage_dataset(std::size_t count, util::Rng& rng) {
  dataset::HotspotDataset data;
  for (std::size_t i = 0; i < count; ++i) {
    Tensor image({8, 8});
    const double density = rng.uniform(0.0, 1.0);
    for (std::int64_t p = 0; p < image.numel(); ++p) {
      image[p] = rng.bernoulli(density) ? 1.0f : 0.0f;
    }
    const int label = image.sum() > 32.0 ? 1 : 0;
    data.add(dataset::ClipSample::from_image(image, label,
                                             dataset::Family::kContacts));
  }
  return data;
}

nn::Sequential linear_probe(util::Rng& rng) {
  nn::Sequential net;
  net.emplace<nn::Flatten>();
  net.emplace<nn::Linear>(64, 2, rng);
  return net;
}

TEST(Trainer, LossDecreasesOnLearnableTask) {
  util::Rng rng(1);
  auto data = coverage_dataset(200, rng);
  auto net = linear_probe(rng);
  TrainerConfig config;
  config.epochs = 6;
  config.finetune_epochs = 0;
  config.learning_rate = 0.05f;
  config.augment = false;
  Trainer trainer(net, config);
  const auto history = trainer.train(data);
  ASSERT_EQ(history.size(), 6u);
  EXPECT_LT(history.back().train_loss, history.front().train_loss * 0.7);
}

TEST(Trainer, FinetunePhaseFlagged) {
  util::Rng rng(2);
  auto data = coverage_dataset(60, rng);
  auto net = linear_probe(rng);
  TrainerConfig config;
  config.epochs = 2;
  config.finetune_epochs = 3;
  Trainer trainer(net, config);
  const auto history = trainer.train(data);
  ASSERT_EQ(history.size(), 5u);
  EXPECT_FALSE(history[1].finetune);
  EXPECT_TRUE(history[2].finetune);
  EXPECT_TRUE(history[4].finetune);
}

TEST(Trainer, ModelLeftInEvalMode) {
  util::Rng rng(3);
  auto data = coverage_dataset(40, rng);
  auto net = linear_probe(rng);
  TrainerConfig config;
  config.epochs = 1;
  config.finetune_epochs = 0;
  Trainer trainer(net, config);
  trainer.train(data);
  EXPECT_FALSE(net.training());
}

TEST(Trainer, DeterministicAtFixedSeed) {
  util::Rng data_rng(4);
  auto data = coverage_dataset(80, data_rng);
  auto run = [&](std::uint64_t seed) {
    util::Rng rng(11);
    auto net = linear_probe(rng);
    TrainerConfig config;
    config.epochs = 3;
    config.finetune_epochs = 0;
    config.seed = seed;
    Trainer trainer(net, config);
    return trainer.train(data).back().train_loss;
  };
  EXPECT_DOUBLE_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Trainer, OversampleGrowsEpochWorkOnImbalancedData) {
  // With oversampling, hotspots appear multiple times per epoch; check that
  // training still works and the model leans more positive than without.
  util::Rng rng(5);
  dataset::HotspotDataset data;
  for (int i = 0; i < 60; ++i) {
    Tensor image({8, 8}, i < 6 ? 1.0f : 0.0f);
    data.add(dataset::ClipSample::from_image(image, i < 6 ? 1 : 0,
                                             dataset::Family::kComb));
  }
  auto net = linear_probe(rng);
  TrainerConfig config;
  config.epochs = 4;
  config.finetune_epochs = 0;
  config.hotspot_oversample = 5;
  config.augment = false;
  Trainer trainer(net, config);
  trainer.train(data);
  const auto predictions = predict_labels(net, data, 16);
  int caught = 0;
  for (int i = 0; i < 6; ++i) {
    caught += predictions[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(caught, 6);  // trivially separable, must catch all hotspots
}

TEST(Trainer, BiasedFinetuneIncreasesHotspotPredictions) {
  // Property of Sec. 3.4.3: finetuning with smoothed non-hotspot labels can
  // only push logits toward the hotspot class. Compare prediction counts.
  util::Rng data_rng(6);
  auto data = coverage_dataset(150, data_rng);
  auto count_positives = [&](int finetune_epochs, float eps) {
    util::Rng rng(7);
    auto net = linear_probe(rng);
    TrainerConfig config;
    config.epochs = 4;
    config.finetune_epochs = finetune_epochs;
    config.bias_epsilon = eps;
    config.augment = false;
    config.seed = 3;
    Trainer trainer(net, config);
    trainer.train(data);
    int positives = 0;
    for (const int p : predict_labels(net, data, 32)) {
      positives += p;
    }
    return positives;
  };
  EXPECT_GE(count_positives(3, 0.3f), count_positives(0, 0.0f));
}

TEST(Trainer, PredictLabelsCoversWholeDataset) {
  util::Rng rng(8);
  auto data = coverage_dataset(33, rng);  // not a batch multiple
  auto net = linear_probe(rng);
  EXPECT_EQ(predict_labels(net, data, 8).size(), 33u);
}

TEST(TrainerDeath, EmptyDatasetRejected) {
  util::Rng rng(9);
  auto net = linear_probe(rng);
  TrainerConfig config;
  Trainer trainer(net, config);
  dataset::HotspotDataset empty;
  EXPECT_DEATH(trainer.train(empty), "HOTSPOT_CHECK");
}

}  // namespace
}  // namespace hotspot::core
