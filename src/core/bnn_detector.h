// The paper's detector packaged behind the common eval::Detector interface
// used by the Table-3 comparison harness.
#pragma once

#include <optional>

#include "core/brnn.h"
#include "core/trainer.h"
#include "eval/detector.h"

namespace hotspot::core {

struct BnnDetectorConfig {
  BrnnConfig model;
  TrainerConfig trainer;

  // Sized for CI-scale benchmarks on `image_size` clips.
  static BnnDetectorConfig compact(std::int64_t image_size);
};

class BnnHotspotDetector : public eval::Detector {
 public:
  explicit BnnHotspotDetector(const BnnDetectorConfig& config);

  std::string name() const override { return "Ours (BNN)"; }
  void fit(const dataset::HotspotDataset& train, util::Rng& rng) override;
  std::vector<int> predict(const dataset::HotspotDataset& data) override;

  // Available after fit().
  BrnnModel& model();
  const std::vector<EpochStats>& history() const { return history_; }

 private:
  BnnDetectorConfig config_;
  std::optional<BrnnModel> model_;
  std::vector<EpochStats> history_;
};

}  // namespace hotspot::core
