#include "layout/raster.h"

#include <algorithm>

#include "util/check.h"

namespace hotspot::layout {

tensor::Tensor rasterize_coverage(const Pattern& pattern, const Rect& window,
                                  std::int64_t grid) {
  HOTSPOT_CHECK_GT(grid, 0);
  HOTSPOT_CHECK(!window.empty()) << "window " << to_string(window);
  tensor::Tensor raster({grid, grid});
  const double px_w = static_cast<double>(window.width()) /
                      static_cast<double>(grid);
  const double px_h = static_cast<double>(window.height()) /
                      static_cast<double>(grid);
  const double px_area = px_w * px_h;
  for (const Rect& rect : pattern.rects()) {
    const Rect cut = intersect(rect, window);
    if (cut.empty()) {
      continue;
    }
    // Pixel index range the rect can touch.
    const auto px0 = static_cast<std::int64_t>(
        (static_cast<double>(cut.x0 - window.x0)) / px_w);
    const auto px1 = std::min<std::int64_t>(
        grid - 1, static_cast<std::int64_t>(
                      (static_cast<double>(cut.x1 - window.x0) - 1e-9) / px_w));
    const auto py0 = static_cast<std::int64_t>(
        (static_cast<double>(cut.y0 - window.y0)) / px_h);
    const auto py1 = std::min<std::int64_t>(
        grid - 1, static_cast<std::int64_t>(
                      (static_cast<double>(cut.y1 - window.y0) - 1e-9) / px_h));
    for (std::int64_t py = py0; py <= py1; ++py) {
      const double cell_y0 = static_cast<double>(window.y0) +
                             static_cast<double>(py) * px_h;
      const double cell_y1 = cell_y0 + px_h;
      const double oy = std::min(cell_y1, static_cast<double>(cut.y1)) -
                        std::max(cell_y0, static_cast<double>(cut.y0));
      if (oy <= 0.0) {
        continue;
      }
      for (std::int64_t px = px0; px <= px1; ++px) {
        const double cell_x0 = static_cast<double>(window.x0) +
                               static_cast<double>(px) * px_w;
        const double cell_x1 = cell_x0 + px_w;
        const double ox = std::min(cell_x1, static_cast<double>(cut.x1)) -
                          std::max(cell_x0, static_cast<double>(cut.x0));
        if (ox <= 0.0) {
          continue;
        }
        raster.at2(py, px) = std::min(
            1.0f, raster.at2(py, px) +
                      static_cast<float>(ox * oy / px_area));
      }
    }
  }
  return raster;
}

tensor::Tensor rasterize_binary(const Pattern& pattern, const Rect& window,
                                std::int64_t grid) {
  tensor::Tensor coverage = rasterize_coverage(pattern, window, grid);
  for (std::int64_t i = 0; i < coverage.numel(); ++i) {
    coverage[i] = coverage[i] >= 0.5f ? 1.0f : 0.0f;
  }
  return coverage;
}

}  // namespace hotspot::layout
