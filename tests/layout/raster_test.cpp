#include "layout/raster.h"

#include <gtest/gtest.h>

#include "tensor/tensor_ops.h"

namespace hotspot::layout {
namespace {

using tensor::Tensor;

TEST(RasterizeCoverage, FullRectFullCoverage) {
  Pattern pattern({Rect{0, 0, 100, 100}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 4);
  for (std::int64_t i = 0; i < raster.numel(); ++i) {
    EXPECT_NEAR(raster[i], 1.0f, 1e-6);
  }
}

TEST(RasterizeCoverage, HalfCoveredPixel) {
  // Rect covers the left half of a 1-pixel window.
  Pattern pattern({Rect{0, 0, 50, 100}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 1);
  EXPECT_NEAR(raster[0], 0.5f, 1e-6);
}

TEST(RasterizeCoverage, ExactAreaFractions) {
  // 25x25 rect in a 100x100 window at grid 2: only the top-left pixel (50nm
  // cells) sees it, covering a quarter.
  Pattern pattern({Rect{0, 0, 25, 25}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 2);
  EXPECT_NEAR(raster.at2(0, 0), 0.25f, 1e-6);
  EXPECT_NEAR(raster.at2(0, 1), 0.0f, 1e-6);
}

TEST(RasterizeCoverage, OverlappingRectsSaturate) {
  Pattern pattern({Rect{0, 0, 100, 100}, Rect{0, 0, 100, 100}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 2);
  EXPECT_LE(raster.max(), 1.0f);
}

TEST(RasterizeCoverage, GeometryOutsideWindowIgnored) {
  Pattern pattern({Rect{200, 200, 300, 300}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 4);
  EXPECT_EQ(raster.max(), 0.0f);
}

TEST(RasterizeBinary, ThresholdAtHalf) {
  Pattern pattern({Rect{0, 0, 60, 100}});  // 60% of the single pixel
  const Tensor binary = rasterize_binary(pattern, Rect{0, 0, 100, 100}, 1);
  EXPECT_EQ(binary[0], 1.0f);
  Pattern thin({Rect{0, 0, 40, 100}});  // 40%
  EXPECT_EQ(rasterize_binary(thin, Rect{0, 0, 100, 100}, 1)[0], 0.0f);
}

}  // namespace
}  // namespace hotspot::layout
