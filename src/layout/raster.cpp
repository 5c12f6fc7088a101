#include "layout/raster.h"

#include <algorithm>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/bytes.h"
#include "util/check.h"

namespace hotspot::layout {
namespace {

// Adds the area fraction each rect of `pattern` covers to
// coverage[0, grid * grid), saturating at 1, rect by rect in pattern order.
// A rect's x-overlap with each column it touches is computed once into
// scratch.column_overlap, clamped at 0 so a column the rect misses gains +0
// (and min(1, c + 0) == c on [0, 1], as if it were skipped). A row's gains
// float(ox * oy / px_area) go into scratch.row_gain, evaluated again only
// when the row's y-overlap oy differs from the last one evaluated for this
// rect, so a rect's interior rows share one evaluation; the add-and-saturate
// over the row then vectorizes. Every pixel gets the same doubles, the same
// expression and the same order whichever entry point runs, so that
// rasterize_bits stays bit-identical to thresholding rasterize_coverage.
void accumulate_coverage(const Pattern& pattern, const Rect& window,
                         std::int64_t grid, float* coverage,
                         RasterScratch& scratch) {
  HOTSPOT_CHECK(!window.empty()) << "window " << to_string(window);
  const double px_w = static_cast<double>(window.width()) /
                      static_cast<double>(grid);
  const double px_h = static_cast<double>(window.height()) /
                      static_cast<double>(grid);
  const double px_area = px_w * px_h;
  std::vector<double>& column_overlap = scratch.column_overlap;
  std::vector<float>& row_gain = scratch.row_gain;
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
    if (px1 < px0) {
      continue;
    }
    const auto columns = static_cast<std::size_t>(px1 - px0 + 1);
    column_overlap.resize(columns);
    row_gain.resize(columns);
    for (std::int64_t px = px0; px <= px1; ++px) {
      const double cell_x0 = static_cast<double>(window.x0) +
                             static_cast<double>(px) * px_w;
      const double cell_x1 = cell_x0 + px_w;
      column_overlap[static_cast<std::size_t>(px - px0)] = std::max(
          0.0, std::min(cell_x1, static_cast<double>(cut.x1)) -
                   std::max(cell_x0, static_cast<double>(cut.x0)));
    }
    // The oy row_gain holds for this rect; 0 means none yet, since rows
    // with oy <= 0 are skipped.
    double gain_oy = 0.0;
    for (std::int64_t py = py0; py <= py1; ++py) {
      const double cell_y0 = static_cast<double>(window.y0) +
                             static_cast<double>(py) * px_h;
      const double cell_y1 = cell_y0 + px_h;
      const double oy = std::min(cell_y1, static_cast<double>(cut.y1)) -
                        std::max(cell_y0, static_cast<double>(cut.y0));
      if (oy <= 0.0) {
        continue;
      }
      if (oy != gain_oy) {
        for (std::size_t i = 0; i < columns; ++i) {
          row_gain[i] = static_cast<float>(column_overlap[i] * oy / px_area);
        }
        gain_oy = oy;
      }
      float* row = coverage + py * grid + px0;
      const float* gain = row_gain.data();
      for (std::size_t i = 0; i < columns; ++i) {
        row[i] = std::min(1.0f, row[i] + gain[i]);
      }
    }
  }
}

// Packs coverage[i] >= 0.5 into out[0, packed_bytes(count)) in pack_bits
// order. SSE2 compares four pixels per instruction, a byte per two
// compares; the tail past the last whole byte goes through pack_bits.
void pack_threshold(const float* coverage, std::size_t count,
                    std::uint8_t* out) {
  const auto is_set = [](float value) { return value >= 0.5f; };
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128 half = _mm_set1_ps(0.5f);
  for (; i + 8 <= count; i += 8) {
    const int low =
        _mm_movemask_ps(_mm_cmpge_ps(_mm_loadu_ps(coverage + i), half));
    const int high =
        _mm_movemask_ps(_mm_cmpge_ps(_mm_loadu_ps(coverage + i + 4), half));
    out[i / 8] = static_cast<std::uint8_t>(low | (high << 4));
  }
#endif
  util::pack_bits(coverage + i, count - i, is_set, out + i / 8);
}

}  // namespace

tensor::Tensor rasterize_coverage(const Pattern& pattern, const Rect& window,
                                  std::int64_t grid) {
  HOTSPOT_CHECK_GT(grid, 0);
  tensor::Tensor raster({grid, grid});
  RasterScratch scratch;
  accumulate_coverage(pattern, window, grid, raster.data(), scratch);
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

void rasterize_bits(const Pattern& pattern, const Rect& window,
                    std::int64_t grid, RasterScratch& scratch,
                    std::vector<std::uint8_t>& out) {
  HOTSPOT_CHECK_GT(grid, 0);
  const auto pixels = static_cast<std::size_t>(grid * grid);
  scratch.coverage.assign(pixels, 0.0f);
  accumulate_coverage(pattern, window, grid, scratch.coverage.data(),
                      scratch);
  out.resize(util::packed_bytes(pixels));
  pack_threshold(scratch.coverage.data(), pixels, out.data());
}

}  // namespace hotspot::layout
