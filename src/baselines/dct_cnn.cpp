#include "baselines/dct_cnn.h"

#include "nn/activation_layers.h"
#include "nn/batchnorm_layer.h"
#include "nn/conv_layer.h"
#include "nn/linear_layer.h"
#include "nn/pool_layers.h"
#include "util/check.h"

namespace hotspot::baselines {

DctCnnConfig DctCnnConfig::compact(std::int64_t image_size) {
  DctCnnConfig config;
  // Keep the DCT tile grid at image_size/block tiles; block 4 on 32px clips
  // mirrors DAC'17's 12x12x32 tensor proportions at CI scale.
  config.dct.block = 4;
  config.dct.coefficients = 8;
  config.trainer.epochs = 10;
  config.trainer.finetune_epochs = 2;  // deep biased learning
  config.trainer.learning_rate = 0.002f;
  config.trainer.hotspot_oversample = 4;
  config.trainer.augment = false;  // DCT tensors are not flip-covariant
  (void)image_size;
  return config;
}

core::BatchBuilder DctCnnDetector::dct_builder() const {
  const features::DctTensorSpec spec = config_.dct;
  return [spec](const dataset::HotspotDataset& data,
                const std::vector<std::size_t>& indices,
                util::Rng* /*augment_rng*/) {
    return features::dct_feature_batch(data, indices, spec);
  };
}

void DctCnnDetector::fit(const dataset::HotspotDataset& train,
                         util::Rng& rng) {
  HOTSPOT_CHECK_EQ(train.image_size() % config_.dct.block, 0)
      << "image size must tile by the DCT block";
  const std::int64_t tiles = train.image_size() / config_.dct.block;
  HOTSPOT_CHECK_GE(tiles, 4) << "DCT tile grid too small for two pool stages";

  util::Rng init_rng = rng.fork(0x444354);
  net_.emplace();
  // Stage 1: two 3x3 convs + pool (DAC'17's paired-conv stage).
  net_->emplace<nn::Conv2d>(config_.dct.coefficients, config_.stage1_channels,
                            3, 1, 1, init_rng);
  net_->emplace<nn::BatchNorm2d>(config_.stage1_channels);
  net_->emplace<nn::ReLU>();
  net_->emplace<nn::Conv2d>(config_.stage1_channels, config_.stage1_channels,
                            3, 1, 1, init_rng);
  net_->emplace<nn::BatchNorm2d>(config_.stage1_channels);
  net_->emplace<nn::ReLU>();
  net_->emplace<nn::MaxPool2d>(2);
  // Stage 2.
  net_->emplace<nn::Conv2d>(config_.stage1_channels, config_.stage2_channels,
                            3, 1, 1, init_rng);
  net_->emplace<nn::BatchNorm2d>(config_.stage2_channels);
  net_->emplace<nn::ReLU>();
  net_->emplace<nn::Conv2d>(config_.stage2_channels, config_.stage2_channels,
                            3, 1, 1, init_rng);
  net_->emplace<nn::BatchNorm2d>(config_.stage2_channels);
  net_->emplace<nn::ReLU>();
  net_->emplace<nn::MaxPool2d>(2);
  // Head.
  const std::int64_t flat =
      config_.stage2_channels * (tiles / 4) * (tiles / 4);
  net_->emplace<nn::Flatten>();
  net_->emplace<nn::Linear>(flat, config_.fc_hidden, init_rng);
  net_->emplace<nn::ReLU>();
  net_->emplace<nn::Linear>(config_.fc_hidden, 2, init_rng);

  core::TrainerConfig trainer_config = config_.trainer;
  trainer_config.seed = rng.next_u64();
  core::Trainer trainer(*net_, trainer_config, dct_builder());
  trainer.train(train);
}

std::vector<int> DctCnnDetector::predict(const dataset::HotspotDataset& data) {
  HOTSPOT_CHECK(net_.has_value()) << "predict() before fit()";
  return core::predict_labels(*net_, data, core::kInferenceBatchSize,
                              dct_builder());
}

nn::Sequential& DctCnnDetector::network() {
  HOTSPOT_CHECK(net_.has_value()) << "network() before fit()";
  return *net_;
}

}  // namespace hotspot::baselines
