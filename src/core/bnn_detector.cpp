#include "core/bnn_detector.h"

namespace hotspot::core {

BnnDetectorConfig BnnDetectorConfig::compact(std::int64_t image_size) {
  BnnDetectorConfig config;
  config.model = BrnnConfig::compact(image_size);
  config.trainer.batch_size = 32;
  config.trainer.epochs = 12;
  config.trainer.finetune_epochs = 2;
  config.trainer.learning_rate = 0.05f;
  config.trainer.hotspot_oversample = 4;
  return config;
}

BnnHotspotDetector::BnnHotspotDetector(const BnnDetectorConfig& config)
    : config_(config) {}

void BnnHotspotDetector::fit(const dataset::HotspotDataset& train,
                             util::Rng& rng) {
  HOTSPOT_CHECK_EQ(train.image_size(), config_.model.image_size)
      << "dataset image size does not match the model configuration";
  util::Rng init_rng = rng.fork(0x424e4e);
  model_.emplace(config_.model, init_rng);
  TrainerConfig trainer_config = config_.trainer;
  trainer_config.seed = rng.next_u64();
  Trainer trainer(*model_, trainer_config);
  // Trainer::train leaves the model in eval mode, on the default kPacked
  // backend.
  history_ = trainer.train(train);
}

std::vector<int> BnnHotspotDetector::predict(
    const dataset::HotspotDataset& data) {
  HOTSPOT_CHECK(model_.has_value()) << "predict() before fit()";
  return predict_labels(*model_, data, kInferenceBatchSize);
}

BrnnModel& BnnHotspotDetector::model() {
  HOTSPOT_CHECK(model_.has_value()) << "model() before fit()";
  return *model_;
}

}  // namespace hotspot::core
