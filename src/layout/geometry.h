// Manhattan layout geometry in integer nanometres.
//
// Layout clips in the ICCAD-2012 benchmark are rectilinear metal patterns;
// axis-aligned rectangles are sufficient to represent them (rectilinear
// polygons are unions of rects). Coordinates are int64 nanometres so no
// floating-point geometry is needed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hotspot::layout {

// Half-open axis-aligned rectangle [x0,x1) x [y0,y1).
struct Rect {
  std::int64_t x0 = 0;
  std::int64_t y0 = 0;
  std::int64_t x1 = 0;
  std::int64_t y1 = 0;

  std::int64_t width() const { return x1 - x0; }
  std::int64_t height() const { return y1 - y0; }
  std::int64_t area() const { return width() * height(); }
  bool empty() const { return x1 <= x0 || y1 <= y0; }

  bool contains(std::int64_t x, std::int64_t y) const {
    return x >= x0 && x < x1 && y >= y0 && y < y1;
  }

  bool operator==(const Rect& other) const = default;
};

// Intersection (possibly empty).
Rect intersect(const Rect& a, const Rect& b);

// Smallest rect containing both.
Rect bounding_box(const Rect& a, const Rect& b);

std::string to_string(const Rect& rect);

// A single-layer pattern: a bag of rects. Overlapping rects are allowed and
// mean union.
class Pattern {
 public:
  Pattern() = default;
  explicit Pattern(std::vector<Rect> rects);

  void add(const Rect& rect);

  // Removes every rect, keeping the storage for the next add().
  void clear() { rects_.clear(); }

  const std::vector<Rect>& rects() const { return rects_; }
  bool empty() const { return rects_.empty(); }
  std::size_t size() const { return rects_.size(); }

  // Bounding box of all rects; empty Rect when the pattern is empty.
  Rect bounding_box() const;

  // True when the point is covered by any rect.
  bool covers(std::int64_t x, std::int64_t y) const;

  // Translates every rect by (dx, dy).
  void translate(std::int64_t dx, std::int64_t dy);

  // Keeps only the parts inside `window`, translated so the window's origin
  // becomes (0,0).
  Pattern clipped_to(const Rect& window) const;

 private:
  std::vector<Rect> rects_;
};

}  // namespace hotspot::layout
