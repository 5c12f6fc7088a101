// DCT feature tensors (DAC'17 [16]): the clip image is tiled into blocks,
// each block is 2-D DCT'd, and the low-frequency coefficients become the
// channels of a compact feature tensor the baseline CNN consumes.
#pragma once

#include "dataset/dataset.h"
#include "tensor/dct.h"

namespace hotspot::features {

struct DctTensorSpec {
  std::int64_t block = 4;          // tile edge
  std::int64_t coefficients = 8;   // zig-zag-first coefficients kept
};

// Whole dataset -> [n, coefficients, H/block, W/block] NCHW batch.
tensor::Tensor dct_feature_batch(const dataset::HotspotDataset& data,
                                 const std::vector<std::size_t>& indices,
                                 const DctTensorSpec& spec);

}  // namespace hotspot::features
