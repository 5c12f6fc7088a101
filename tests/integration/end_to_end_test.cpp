// End-to-end pipeline tests: synthetic benchmark generation -> training ->
// packed inference -> paper metrics. Sized for CI (a ~1% scale benchmark and
// few epochs), so thresholds are deliberately loose; the bench harnesses run
// the real comparison at larger scale.
#include <gtest/gtest.h>

#include "baselines/adaboost_detector.h"
#include "core/bnn_detector.h"
#include "dataset/generator.h"
#include "eval/evaluation.h"
#include "nn/serialize.h"
#include "support/test_support.h"
#include "tensor/tensor_ops.h"

namespace hotspot {
namespace {

dataset::Benchmark ci_benchmark() {
  dataset::BenchmarkConfig config = dataset::iccad2012_config(1.0, 32);
  config.train.hotspots = 40;
  config.train.non_hotspots = 160;
  config.test.hotspots = 30;
  config.test.non_hotspots = 120;
  config.seed = 2024;
  return dataset::generate_benchmark(config);
}

core::BnnDetectorConfig ci_config() {
  core::BnnDetectorConfig config = core::BnnDetectorConfig::compact(32);
  // Pinned (not tracking compact()'s defaults): at this 200-sample scale
  // the lower rate keeps the operating point off the flag-everything
  // degenerate corner.
  config.trainer.epochs = 8;
  config.trainer.finetune_epochs = 1;
  config.trainer.learning_rate = 0.02f;
  return config;
}

TEST(EndToEnd, BnnDetectorBeatsAlwaysNegativeAndRandom) {
  const auto bench = ci_benchmark();
  core::BnnHotspotDetector detector(ci_config());
  util::Rng rng(1);
  const eval::EvaluationRow row =
      eval::evaluate_detector(detector, bench.train, bench.test, rng);

  // Must catch a meaningful fraction of hotspots...
  EXPECT_GT(row.matrix.accuracy(), 0.3)
      << row.matrix.to_string();
  // ...without firing on everything.
  EXPECT_LT(row.matrix.false_alarm(), 90) << row.matrix.to_string();
  // Better than random guessing overall: TPR + TNR > 1.
  const double tnr =
      static_cast<double>(row.matrix.true_negative) /
      static_cast<double>(row.matrix.true_negative +
                          row.matrix.false_positive);
  EXPECT_GT(row.matrix.accuracy() + tnr, 1.1) << row.matrix.to_string();
}

TEST(EndToEnd, TrainedModelSurvivesCheckpointAndPackedDeployment) {
  const auto bench = ci_benchmark();
  core::BnnDetectorConfig config = ci_config();
  config.trainer.epochs = 2;  // weights just need to be non-trivial
  core::BnnHotspotDetector detector(config);
  util::Rng rng(2);
  detector.fit(bench.train, rng);

  const std::string path = test_support::test_path("e2e_model.bin");
  ASSERT_TRUE(nn::save_checkpoint(path, detector.model()));

  util::Rng fresh_rng(77);
  core::BrnnModel restored(config.model, fresh_rng);
  ASSERT_TRUE(nn::load_checkpoint(path, restored));
  restored.set_training(false);
  restored.set_backend(core::Backend::kPacked);

  const auto indices = bench.test.all_indices();
  const std::vector<std::size_t> head(indices.begin(), indices.begin() + 20);
  const tensor::Tensor images = bench.test.batch_images(head);
  const auto original = detector.model().predict(images);
  const auto roundtrip = restored.predict(images);
  EXPECT_EQ(original, roundtrip);
}

TEST(EndToEnd, TrainingHistoryShowsLearning) {
  const auto bench = ci_benchmark();
  core::BnnHotspotDetector detector(ci_config());
  util::Rng rng(3);
  detector.fit(bench.train, rng);
  const auto& history = detector.history();
  ASSERT_GE(history.size(), 4u);
  // Loss after the main phase is below the first epoch's.
  const auto& last_main = history[history.size() - 2];
  EXPECT_LT(last_main.train_loss, history.front().train_loss);
}

TEST(EndToEnd, UnseenFamilyStillDetectedSometimes) {
  // The test split contains T-junctions the model never trained on; the
  // generalization claim of ML detectors is that some of these are still
  // caught. Weight the test split heavily toward the unseen family so the
  // check is statistically stable at CI scale.
  dataset::BenchmarkConfig config = dataset::iccad2012_config(1.0, 32);
  config.train.hotspots = 40;
  config.train.non_hotspots = 160;
  config.test.hotspots = 40;
  config.test.non_hotspots = 80;
  config.test.family_weights = {0.1, 0.1, 0.1, 0.1, 0.1, 0.5};
  config.seed = 2024;
  const auto bench = dataset::generate_benchmark(config);
  core::BnnHotspotDetector detector(ci_config());
  util::Rng rng(4);
  detector.fit(bench.train, rng);
  const auto predictions = detector.predict(bench.test);
  int unseen_total = 0;
  int unseen_caught = 0;
  for (std::size_t i = 0; i < bench.test.size(); ++i) {
    const auto& sample = bench.test.sample(i);
    if (sample.family == dataset::Family::kTJunction && sample.label == 1) {
      ++unseen_total;
      unseen_caught += predictions[i];
    }
  }
  ASSERT_GT(unseen_total, 0) << "test split lost its unseen family";
  EXPECT_GT(unseen_caught, 0)
      << "no generalization to unseen patterns at all";
}

TEST(EndToEnd, AdaBoostBaselineRunsOnSameBenchmark) {
  const auto bench = ci_benchmark();
  baselines::AdaBoostDetector detector{baselines::AdaBoostDetectorConfig{}};
  util::Rng rng(5);
  const eval::EvaluationRow row =
      eval::evaluate_detector(detector, bench.train, bench.test, rng);
  EXPECT_EQ(row.matrix.total(), static_cast<std::int64_t>(bench.test.size()));
}

}  // namespace
}  // namespace hotspot
