// One labelled clip image: the unit the detectors consume.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace hotspot::dataset {

// Pattern family ids; test-only families exercise generalization to unseen
// pattern classes the way the contest's merged benchmarks do.
enum class Family : std::uint8_t {
  kDenseLines = 0,
  kTipToTip = 1,
  kJog = 2,
  kContacts = 3,
  kComb = 4,
  kTJunction = 5,  // test split only
};

const char* to_string(Family family);
inline constexpr int kFamilyCount = 6;

struct ClipSample {
  std::vector<std::uint8_t> pixels;  // row-major 0/1, size x size
  std::int32_t size = 0;             // image edge length (l_s)
  std::int8_t label = 0;             // 1 = hotspot
  Family family = Family::kDenseLines;

  // Image as a [size, size] float tensor of {0,1}.
  tensor::Tensor to_image() const;

  // Builds a sample from a binary raster.
  static ClipSample from_image(const tensor::Tensor& image, int label,
                               Family family);
};

}  // namespace hotspot::dataset
