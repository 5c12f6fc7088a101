// Rasterization of Manhattan patterns to pixel grids.
#pragma once

#include <cstdint>
#include <vector>

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

// Buffers rasterize_bits accumulates in. A caller that rasterizes window
// after window keeps one, so a window allocates nothing once the buffers
// have grown to the grid. Only `coverage` outlives a rect; the other two are
// rewritten for each rect the window holds.
struct RasterScratch {
  std::vector<float> coverage;         // grid * grid area fractions
  std::vector<double> column_overlap;  // one rect's x-overlap per column,
                                       // clamped at 0
  std::vector<float> row_gain;         // one row's coverage gain per column:
                                       // float(overlap * oy / pixel area)
};

// The binary raster, bit-packed LSB-first (util::pack_bits): pixel i in
// row-major order is bit i % 8 of out[i / 8]. `out` is resized to
// util::packed_bytes(grid * grid) and its pad bits are zero, so the bytes
// equal pack_bits over rasterize_binary's output.
void rasterize_bits(const Pattern& pattern, const Rect& window,
                    std::int64_t grid, RasterScratch& scratch,
                    std::vector<std::uint8_t>& out);

}  // namespace hotspot::layout
