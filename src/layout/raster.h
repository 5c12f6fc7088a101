// Rasterization of Manhattan patterns to pixel grids.
#pragma once

#include "layout/geometry.h"
#include "tensor/tensor.h"

namespace hotspot::layout {

// Rasterizes `pattern` over `window` onto a grid x grid raster. Each pixel
// holds the covered area fraction in [0,1] (exact, by rect/pixel
// intersection), which the lithography model consumes directly.
tensor::Tensor rasterize_coverage(const Pattern& pattern, const Rect& window,
                                  std::int64_t grid);

// Coverage raster thresholded at 0.5 into a binary {0,1} image.
tensor::Tensor rasterize_binary(const Pattern& pattern, const Rect& window,
                                std::int64_t grid);

}  // namespace hotspot::layout
