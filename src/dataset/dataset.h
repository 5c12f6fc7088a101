// Container for labelled clip samples and batch assembly.
#pragma once

#include <vector>

#include "dataset/sample.h"
#include "util/rng.h"

namespace hotspot::dataset {

struct DatasetStats {
  std::int64_t hotspots = 0;
  std::int64_t non_hotspots = 0;
  std::int64_t total() const { return hotspots + non_hotspots; }
  double hotspot_ratio() const {
    return total() == 0 ? 0.0
                        : static_cast<double>(hotspots) /
                              static_cast<double>(total());
  }
};

class HotspotDataset {
 public:
  HotspotDataset() = default;

  void add(ClipSample sample);
  void reserve(std::size_t capacity) { samples_.reserve(capacity); }

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const ClipSample& sample(std::size_t index) const;

  // Image edge length; 0 for an empty dataset. All samples share it.
  std::int64_t image_size() const;

  DatasetStats stats() const;
  // Hotspot/non-hotspot counts per pattern family.
  std::vector<DatasetStats> stats_by_family() const;

  // Assembles images [n, 1, ls, ls] (values {0,1}) and labels for the given
  // sample indices. When `augment_rng` is non-null each image is mirrored
  // horizontally/vertically with probability 1/2 each (Sec. 3.4.1).
  tensor::Tensor batch_images(const std::vector<std::size_t>& indices,
                              util::Rng* augment_rng = nullptr) const;
  std::vector<int> batch_labels(const std::vector<std::size_t>& indices) const;

  // Indices of all samples, shuffled when an rng is supplied.
  std::vector<std::size_t> all_indices(util::Rng* rng = nullptr) const;

 private:
  std::vector<ClipSample> samples_;
};

}  // namespace hotspot::dataset
