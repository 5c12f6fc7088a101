#include "layout/geometry.h"

#include <gtest/gtest.h>

#include "support/test_support.h"

namespace hotspot::layout {
namespace {

TEST(Rect, BasicProperties) {
  const Rect r{0, 0, 10, 20};
  EXPECT_EQ(r.width(), 10);
  EXPECT_EQ(r.height(), 20);
  EXPECT_EQ(r.area(), 200);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE((Rect{5, 5, 5, 10}).empty());
}

TEST(Rect, ContainsHalfOpen) {
  const Rect r{0, 0, 10, 10};
  EXPECT_TRUE(r.contains(0, 0));
  EXPECT_TRUE(r.contains(9, 9));
  EXPECT_FALSE(r.contains(10, 5));
  EXPECT_FALSE(r.contains(5, 10));
}

TEST(Intersect, OverlapAndDisjoint) {
  const Rect a{0, 0, 10, 10};
  const Rect b{5, 5, 15, 15};
  const Rect both = intersect(a, b);
  EXPECT_EQ(both, (Rect{5, 5, 10, 10}));
  EXPECT_TRUE(intersect(a, Rect{20, 20, 30, 30}).empty());
}

TEST(BoundingBox, MergesAndHandlesEmpty) {
  const Rect a{0, 0, 5, 5};
  const Rect b{10, 10, 20, 20};
  EXPECT_EQ(bounding_box(a, b), (Rect{0, 0, 20, 20}));
  EXPECT_EQ(bounding_box(Rect{}, a), a);
}

TEST(Pattern, CoversUnionOfRects) {
  Pattern pattern;
  pattern.add(Rect{0, 0, 10, 10});
  pattern.add(Rect{5, 5, 15, 15});
  EXPECT_TRUE(pattern.covers(12, 12));
  EXPECT_TRUE(pattern.covers(2, 2));
  EXPECT_FALSE(pattern.covers(12, 2));
}

TEST(Pattern, TranslateShiftsEverything) {
  Pattern pattern({Rect{0, 0, 10, 10}});
  pattern.translate(100, 200);
  EXPECT_EQ(pattern.rects()[0], (Rect{100, 200, 110, 210}));
}

TEST(Pattern, ClippedToWindowLocalFrame) {
  Pattern pattern({Rect{-5, -5, 5, 5}, Rect{100, 100, 110, 110}});
  const Pattern clipped = pattern.clipped_to(Rect{0, 0, 50, 50});
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_EQ(clipped.rects()[0], (Rect{0, 0, 5, 5}));
}

TEST(Pattern, EmptyRectRejected) {
  Pattern pattern;
  EXPECT_DEATH(pattern.add(Rect{0, 0, 0, 10}), "HOTSPOT_CHECK");
}

TEST(Pattern, BoundingBoxOfEmptyPatternIsEmpty) {
  EXPECT_TRUE(Pattern().bounding_box().empty());
}

}  // namespace
}  // namespace hotspot::layout
