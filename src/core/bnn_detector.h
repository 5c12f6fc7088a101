// The paper's detector packaged behind the common eval::Detector interface
// used by the Table-3 comparison harness.
#pragma once

#include <functional>
#include <optional>

#include "core/brnn.h"
#include "core/trainer.h"
#include "eval/detector.h"

namespace hotspot::core {

struct BnnDetectorConfig {
  BrnnConfig model;
  TrainerConfig trainer;
  // Batch size used by predict(). Larger inference batches amortize sign
  // packing and fill more 64-position lane words of the direct binary conv
  // than the training batch size; 0 falls back to trainer.batch_size.
  int inference_batch_size = 64;

  // Sized for CI-scale benchmarks on `image_size` clips.
  static BnnDetectorConfig compact(std::int64_t image_size);
};

class BnnHotspotDetector : public eval::Detector {
 public:
  explicit BnnHotspotDetector(const BnnDetectorConfig& config);

  std::string name() const override { return "Ours (BNN)"; }
  void fit(const dataset::HotspotDataset& train, util::Rng& rng) override;
  std::vector<int> predict(const dataset::HotspotDataset& data) override;

  // Batch-feed API: classifies a prepared [n, 1, ls, ls] {0,1} image batch
  // directly, without materializing a HotspotDataset. This is what the
  // streaming scan pipeline feeds — the caller owns batching, so dedup and
  // double buffering happen upstream. Per-sample outputs are independent of
  // batch composition (scaling, BN eval stats, and the packed conv's
  // per-lane arithmetic are all per-sample), so any batching of the same
  // images yields identical labels.
  //
  // Safe to call from multiple threads, and calls run in parallel:
  // inference runs the model's compiled plan, which is immutable and uses
  // call-local scratch.
  std::vector<int> predict_batch(const tensor::Tensor& images);

  // The batch-feed API packaged as a scan::ScanPipeline-compatible
  // callable. Valid as long as the detector outlives the callable.
  std::function<std::vector<int>(const tensor::Tensor&)> classifier();

  // Available after fit().
  BrnnModel& model();
  const std::vector<EpochStats>& history() const { return history_; }

 private:
  BnnDetectorConfig config_;
  std::optional<BrnnModel> model_;
  std::vector<EpochStats> history_;
};

}  // namespace hotspot::core
