// Type-II discrete cosine transform.
//
// Used by the DAC'17 baseline's feature-tensor extraction: the layout clip is
// divided into blocks, each block is 2-D DCT'd, and the leading (low
// frequency) coefficients form the feature tensor.
#pragma once

#include "tensor/tensor.h"

namespace hotspot::tensor {

// Splits `image` [H,W] into non-overlapping `block`-sized tiles, applies the
// orthonormal 2-D DCT-II to each (one cosine basis B per call; a tile X
// becomes B X B^T), and keeps the zig-zag-first `coefficients` per tile.
// Output is [coefficients, H/block, W/block] — channel-major like the DAC'17
// feature tensor. H and W must be divisible by `block`.
Tensor block_dct_features(const Tensor& image, std::int64_t block,
                          std::int64_t coefficients);

// Zig-zag scan order of a block x block matrix (JPEG order); exposed for
// tests.
std::vector<std::pair<std::int64_t, std::int64_t>> zigzag_order(
    std::int64_t block);

}  // namespace hotspot::tensor
