#include "layout/clip.h"

#include <gtest/gtest.h>

#include "support/test_support.h"

namespace hotspot::layout {
namespace {

TEST(Clip, RasterizesOwnWindow) {
  Clip clip{Pattern({Rect{0, 0, 512, 1024}}), 1024};
  const auto binary = clip.binary(8);
  // Left half covered.
  EXPECT_EQ(binary.at2(0, 0), 1.0f);
  EXPECT_EQ(binary.at2(0, 3), 1.0f);
  EXPECT_EQ(binary.at2(0, 4), 0.0f);
}

TEST(ExtractClips, CoversBoundingBox) {
  Pattern full({Rect{0, 0, 2000, 1000}});
  const auto clips = extract_clips(full, 1000, 1000);
  EXPECT_EQ(clips.size(), 2u);  // 2 x 1 tiling of the bounding box
  for (const auto& clip : clips) {
    EXPECT_FALSE(clip.pattern.empty());
  }
}

TEST(ExtractClips, OverlappingStride) {
  Pattern full({Rect{0, 0, 1500, 500}});
  const auto clips = extract_clips(full, 1000, 500);
  EXPECT_EQ(clips.size(), 3u);  // x = 0, 500, 1000
}

TEST(ExtractClips, EmptyLayoutYieldsNothing) {
  EXPECT_TRUE(extract_clips(Pattern(), 1000, 1000).empty());
}

TEST(ExtractClips, StepLargerThanSizeRejected) {
  // A step beyond the window edge would leave uncovered stripes between
  // windows — geometry the scan silently never sees.
  Pattern full({Rect{0, 0, 3000, 1000}});
  EXPECT_DEATH(extract_clips(full, 1000, 1500), "HOTSPOT_CHECK");
}

TEST(ExtractClips, ExtentsNotDivisibleByStep) {
  // 2500 nm wide with 1000 nm windows: the last window starts at 2000 and
  // overhangs the bounding box; the overhang must not drop the tail.
  Pattern full({Rect{0, 0, 2500, 800}});
  const auto clips = extract_clips(full, 1000, 1000);
  ASSERT_EQ(clips.size(), 3u);
  // The tail window still holds the final 500 nm of geometry.
  EXPECT_EQ(clips[2].pattern.rects()[0], (Rect{0, 0, 500, 800}));
}

TEST(ExtractClips, GeometryTouchingBoundingBoxEdge) {
  // Rects ending exactly on the bounding-box edge land in the last window,
  // not in a phantom window past the edge.
  Pattern full({Rect{0, 0, 100, 100}, Rect{1900, 1900, 2000, 2000}});
  const auto clips = extract_clips(full, 1000, 1000);
  ASSERT_EQ(clips.size(), 4u);  // 2 x 2 grid
  EXPECT_EQ(clips[3].pattern.rects()[0], (Rect{900, 900, 1000, 1000}));
  EXPECT_TRUE(clips[1].pattern.empty());
  EXPECT_TRUE(clips[2].pattern.empty());
}

TEST(ExtractClips, ClipGeometryInLocalFrame) {
  Pattern full({Rect{1200, 200, 1400, 400}});
  const auto clips = extract_clips(full, 1000, 1000);
  ASSERT_EQ(clips.size(), 1u);
  // Window starts at the bounding box origin (1200, 200).
  EXPECT_EQ(clips[0].pattern.rects()[0], (Rect{0, 0, 200, 200}));
}

}  // namespace
}  // namespace hotspot::layout
