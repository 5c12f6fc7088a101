// A plain per-pixel coverage rasterizer, the reference layout's
// accumulation is held to bit for bit (tests/layout/raster_test.cpp).
//
// Each rect, in pattern order, visits every pixel of its pixel range; a
// pixel whose x- and y-overlap with the rect are both positive gains
// float(ox * oy / px_area), in doubles, saturating at 1. Every overlap is
// computed afresh for each pixel, so no buffer carries a value from one
// pixel, row or rect to the next: a reuse inside layout::rasterize_coverage
// that goes stale shows here. It shares no code with src/layout/raster.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "layout/geometry.h"

namespace hotspot::test_support {

inline std::vector<float> reference_coverage(const layout::Pattern& pattern,
                                             const layout::Rect& window,
                                             std::int64_t grid) {
  std::vector<float> coverage(static_cast<std::size_t>(grid * grid), 0.0f);
  const double px_w =
      static_cast<double>(window.width()) / static_cast<double>(grid);
  const double px_h =
      static_cast<double>(window.height()) / static_cast<double>(grid);
  const double px_area = px_w * px_h;
  for (const layout::Rect& rect : pattern.rects()) {
    const double x0 = static_cast<double>(std::max(rect.x0, window.x0));
    const double x1 = static_cast<double>(std::min(rect.x1, window.x1));
    const double y0 = static_cast<double>(std::max(rect.y0, window.y0));
    const double y1 = static_cast<double>(std::min(rect.y1, window.y1));
    if (x1 <= x0 || y1 <= y0) {
      continue;
    }
    // The pixels the rect can touch: the last is the one holding the point
    // 1e-9 nm short of the rect's far edge.
    const double wx0 = static_cast<double>(window.x0);
    const double wy0 = static_cast<double>(window.y0);
    const auto px0 = static_cast<std::int64_t>((x0 - wx0) / px_w);
    const auto px1 = std::min<std::int64_t>(
        grid - 1, static_cast<std::int64_t>((x1 - wx0 - 1e-9) / px_w));
    const auto py0 = static_cast<std::int64_t>((y0 - wy0) / px_h);
    const auto py1 = std::min<std::int64_t>(
        grid - 1, static_cast<std::int64_t>((y1 - wy0 - 1e-9) / px_h));
    for (std::int64_t py = py0; py <= py1; ++py) {
      for (std::int64_t px = px0; px <= px1; ++px) {
        const double cell_x0 = wx0 + static_cast<double>(px) * px_w;
        const double cell_y0 = wy0 + static_cast<double>(py) * px_h;
        const double ox =
            std::min(cell_x0 + px_w, x1) - std::max(cell_x0, x0);
        const double oy =
            std::min(cell_y0 + px_h, y1) - std::max(cell_y0, y0);
        if (ox <= 0.0 || oy <= 0.0) {
          continue;
        }
        float& pixel = coverage[static_cast<std::size_t>(py * grid + px)];
        pixel = std::min(1.0f, pixel + static_cast<float>(ox * oy / px_area));
      }
    }
  }
  return coverage;
}

}  // namespace hotspot::test_support
