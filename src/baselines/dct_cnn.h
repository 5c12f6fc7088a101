// DAC'17 baseline [16]: a full-precision CNN over DCT feature tensors with
// deep biased learning. This is the "best deep learning-based solution" the
// paper claims an 8x inference speedup over; its convolutions run in float
// arithmetic on the same substrate as the BNN's float-sim path.
#pragma once

#include <optional>

#include "core/trainer.h"
#include "eval/detector.h"
#include "features/dct_tensor.h"
#include "nn/sequential.h"

namespace hotspot::baselines {

struct DctCnnConfig {
  features::DctTensorSpec dct;
  // Channel widths of the two conv stages (DAC'17 uses paired 3x3 conv
  // layers per stage).
  std::int64_t stage1_channels = 32;
  std::int64_t stage2_channels = 64;
  std::int64_t fc_hidden = 64;
  core::TrainerConfig trainer;

  static DctCnnConfig compact(std::int64_t image_size);
};

class DctCnnDetector : public eval::Detector {
 public:
  explicit DctCnnDetector(const DctCnnConfig& config) : config_(config) {}

  std::string name() const override { return "DAC'17 (DCT+CNN)"; }
  void fit(const dataset::HotspotDataset& train, util::Rng& rng) override;
  std::vector<int> predict(const dataset::HotspotDataset& data) override;

  // Available after fit().
  nn::Sequential& network();

 private:
  core::BatchBuilder dct_builder() const;

  DctCnnConfig config_;
  std::optional<nn::Sequential> net_;
};

}  // namespace hotspot::baselines
