#include "scan/window_stream.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "layout/clip.h"
#include "support/test_support.h"
#include "util/rng.h"

namespace hotspot::scan {
namespace {

using layout::Pattern;
using layout::Rect;

// The stream must walk exactly the grid extract_clips materializes, and
// each materialized window must hold bit-identical geometry (same rects,
// same order) — the scan subsystem's equivalence contract.
TEST(ClipWindowStream, MatchesExtractClips) {
  Pattern chip({Rect{0, 0, 700, 300}, Rect{1200, 100, 2600, 900},
                Rect{400, 1400, 500, 2100}, Rect{2500, 2000, 2600, 2100}});
  const std::int64_t size = 1000;
  const std::int64_t step = 500;  // overlapping scan
  const auto eager = layout::extract_clips(chip, size, step);

  ClipWindowStream stream(chip, size, step);
  ASSERT_EQ(static_cast<std::size_t>(stream.window_count()), eager.size());
  WindowRef ref;
  std::int64_t count = 0;
  while (stream.next(ref)) {
    const layout::Clip streamed = stream.materialize(ref);
    ASSERT_LT(static_cast<std::size_t>(ref.index), eager.size());
    EXPECT_EQ(streamed.pattern.rects(),
              eager[static_cast<std::size_t>(ref.index)].pattern.rects())
        << "window " << ref.index;
    EXPECT_EQ(streamed.size_nm, size);
    ++count;
  }
  EXPECT_EQ(count, stream.window_count());
}

// The buffered materialize against Pattern::clipped_to on every window of
// every step, one buffer pair reused throughout. Index cells are 1000 nm
// from the bounding-box origin (200, 100), so cell edges sit at x = 1200,
// 2200, ... and y = 1100, 2100, ...
TEST(ClipWindowStream, BufferedMaterializeMatchesClippedTo) {
  const std::int64_t ox = 200;
  const std::int64_t oy = 100;
  std::vector<Rect> rects{
      Rect{ox, oy, ox + 300, oy + 200},  // anchors the origin
      // Spans 3x3 cells.
      Rect{ox + 500, oy + 500, ox + 2500, oy + 2500},
      // Last covered x (x1 - 1) exactly on a cell edge, one past it and one
      // short of it; the same in y.
      Rect{ox + 100, oy + 300, ox + 1001, oy + 350},
      Rect{ox + 100, oy + 400, ox + 1002, oy + 450},
      Rect{ox + 100, oy + 600, ox + 1000, oy + 650},
      Rect{ox + 1200, oy + 1500, ox + 1250, oy + 2001},
      Rect{ox + 1300, oy + 1500, ox + 1350, oy + 2002},
      Rect{ox + 1400, oy + 1500, ox + 1450, oy + 2000},
      // Starts exactly on a cell edge.
      Rect{ox + 3000, oy + 1000, ox + 3100, oy + 3000},
      // Far corner; the chip's middle stays empty.
      Rect{ox + 5900, oy + 4700, ox + 6150, oy + 4950}};
  util::Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    const std::int64_t x = rng.uniform_int(0, 1800);
    const std::int64_t y = rng.uniform_int(0, 1800);
    const std::int64_t w = rng.uniform_int(1, 1100);
    const std::int64_t h = rng.uniform_int(1, 1100);
    rects.push_back(Rect{ox + x, oy + y, ox + x + w, oy + y + h});
  }
  const Pattern chip(rects);

  Pattern out;
  std::vector<std::uint32_t> candidates;
  // Full, half and quarter steps, and steps that do not divide the cell.
  for (const std::int64_t step : {1000, 500, 250, 300, 700}) {
    ClipWindowStream stream(chip, 1000, step);
    WindowRef ref;
    std::int64_t empty_windows = 0;
    while (stream.next(ref)) {
      stream.materialize(ref, out, candidates);
      const Pattern expected = chip.clipped_to(ref.window);
      ASSERT_EQ(out.rects(), expected.rects())
          << "step " << step << " window " << ref.index << " "
          << layout::to_string(ref.window);
      empty_windows += out.empty() ? 1 : 0;
    }
    EXPECT_GT(empty_windows, 0) << "step " << step;
  }

  // From a dense window straight to an empty one: nothing carries over.
  ClipWindowStream stream(chip, 1000, 1000);
  stream.materialize(stream.window_at(stream.cols() + 1), out, candidates);
  EXPECT_GT(out.size(), 5u);
  const WindowRef empty = stream.window_at(3 * stream.cols() + 3);
  ASSERT_TRUE(chip.clipped_to(empty.window).empty());
  stream.materialize(empty, out, candidates);
  EXPECT_TRUE(out.empty());
}

TEST(ClipWindowStream, ScanOrderIsRowMajor) {
  Pattern chip({Rect{0, 0, 2000, 1000}});
  ClipWindowStream stream(chip, 1000, 1000);
  EXPECT_EQ(stream.cols(), 2);
  EXPECT_EQ(stream.rows(), 1);
  WindowRef first;
  WindowRef second;
  ASSERT_TRUE(stream.next(first));
  ASSERT_TRUE(stream.next(second));
  EXPECT_EQ(first.index, 0);
  EXPECT_EQ(first.window, (Rect{0, 0, 1000, 1000}));
  EXPECT_EQ(second.index, 1);
  EXPECT_EQ(second.window, (Rect{1000, 0, 2000, 1000}));
  WindowRef none;
  EXPECT_FALSE(stream.next(none));
  stream.reset();
  ASSERT_TRUE(stream.next(none));
  EXPECT_EQ(none.index, 0);
}

TEST(ClipWindowStream, OriginFollowsBoundingBox) {
  Pattern chip({Rect{1200, 200, 1400, 400}});
  ClipWindowStream stream(chip, 1000, 1000);
  EXPECT_EQ(stream.origin_x(), 1200);
  EXPECT_EQ(stream.origin_y(), 200);
  EXPECT_EQ(stream.window_count(), 1);
  WindowRef ref;
  ASSERT_TRUE(stream.next(ref));
  const layout::Clip clip = stream.materialize(ref);
  EXPECT_EQ(clip.pattern.rects()[0], (Rect{0, 0, 200, 200}));
}

TEST(ClipWindowStream, EmptyPatternYieldsNoWindows) {
  Pattern empty;
  ClipWindowStream stream(empty, 1000, 1000);
  EXPECT_EQ(stream.window_count(), 0);
  WindowRef ref;
  EXPECT_FALSE(stream.next(ref));
}

TEST(ClipWindowStream, StepLargerThanSizeRejected) {
  Pattern chip({Rect{0, 0, 3000, 1000}});
  EXPECT_DEATH(ClipWindowStream(chip, 1000, 1500), "HOTSPOT_CHECK");
}

TEST(ClipWindowStream, WindowAtRandomAccessAgreesWithScanOrder) {
  Pattern chip({Rect{0, 0, 2500, 1500}});
  ClipWindowStream stream(chip, 1000, 500);
  WindowRef ref;
  while (stream.next(ref)) {
    const WindowRef direct = stream.window_at(ref.index);
    EXPECT_EQ(direct.window, ref.window);
    EXPECT_EQ(direct.ix, ref.ix);
    EXPECT_EQ(direct.iy, ref.iy);
  }
}

}  // namespace
}  // namespace hotspot::scan
