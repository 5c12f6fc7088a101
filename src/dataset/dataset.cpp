#include "dataset/dataset.h"

#include "util/check.h"
#include "util/parallel.h"

namespace hotspot::dataset {

void HotspotDataset::add(ClipSample sample) {
  HOTSPOT_CHECK_GT(sample.size, 0);
  if (!samples_.empty()) {
    HOTSPOT_CHECK_EQ(sample.size, samples_.front().size)
        << "all samples in a dataset share one image size";
  }
  samples_.push_back(std::move(sample));
}

const ClipSample& HotspotDataset::sample(std::size_t index) const {
  HOTSPOT_CHECK_LT(index, samples_.size());
  return samples_[index];
}

std::int64_t HotspotDataset::image_size() const {
  return samples_.empty() ? 0 : samples_.front().size;
}

DatasetStats HotspotDataset::stats() const {
  DatasetStats stats;
  for (const auto& sample : samples_) {
    if (sample.label == 1) {
      ++stats.hotspots;
    } else {
      ++stats.non_hotspots;
    }
  }
  return stats;
}

std::vector<DatasetStats> HotspotDataset::stats_by_family() const {
  std::vector<DatasetStats> stats(kFamilyCount);
  for (const auto& sample : samples_) {
    auto& bucket = stats[static_cast<std::size_t>(sample.family)];
    if (sample.label == 1) {
      ++bucket.hotspots;
    } else {
      ++bucket.non_hotspots;
    }
  }
  return stats;
}

tensor::Tensor HotspotDataset::batch_images(
    const std::vector<std::size_t>& indices, util::Rng* augment_rng) const {
  HOTSPOT_CHECK(!indices.empty());
  const std::int64_t ls = image_size();
  tensor::Tensor batch(
      {static_cast<std::int64_t>(indices.size()), 1, ls, ls});
  // Augmentation decisions come from a shared sequential RNG stream, so draw
  // them up front in index order; the copy is then data-parallel (each
  // sample owns one batch plane) and reads each pixel from its mirrored
  // index in the stored sample.
  std::vector<std::uint8_t> flip_h(indices.size(), 0);
  std::vector<std::uint8_t> flip_v(indices.size(), 0);
  for (std::size_t b = 0; b < indices.size(); ++b) {
    HOTSPOT_CHECK_LT(indices[b], samples_.size());
    if (augment_rng != nullptr) {
      flip_h[b] = augment_rng->bernoulli(0.5) ? 1 : 0;
      flip_v[b] = augment_rng->bernoulli(0.5) ? 1 : 0;
    }
  }
  util::parallel_for(
      0, static_cast<std::int64_t>(indices.size()), /*grain=*/4,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t b = lo; b < hi; ++b) {
          const auto bu = static_cast<std::size_t>(b);
          const std::uint8_t* src = samples_[indices[bu]].pixels.data();
          // Read once: a float store may alias the byte vectors, so reading
          // them inside the row loops would reload them per pixel and keep
          // the loops from vectorizing.
          const bool mirror_x = flip_h[bu] != 0;
          const bool mirror_y = flip_v[bu] != 0;
          float* dst = batch.data() + b * ls * ls;
          for (std::int64_t y = 0; y < ls; ++y, dst += ls) {
            const std::uint8_t* row = src + (mirror_y ? ls - 1 - y : y) * ls;
            if (mirror_x) {
              for (std::int64_t x = 0; x < ls; ++x) {
                dst[x] = row[ls - 1 - x] ? 1.0f : 0.0f;
              }
            } else {
              for (std::int64_t x = 0; x < ls; ++x) {
                dst[x] = row[x] ? 1.0f : 0.0f;
              }
            }
          }
        }
      });
  return batch;
}

std::vector<int> HotspotDataset::batch_labels(
    const std::vector<std::size_t>& indices) const {
  std::vector<int> labels;
  labels.reserve(indices.size());
  for (const auto index : indices) {
    HOTSPOT_CHECK_LT(index, samples_.size());
    labels.push_back(samples_[index].label);
  }
  return labels;
}

std::vector<std::size_t> HotspotDataset::all_indices(util::Rng* rng) const {
  std::vector<std::size_t> indices(samples_.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i;
  }
  if (rng != nullptr) {
    rng->shuffle(indices);
  }
  return indices;
}

}  // namespace hotspot::dataset
