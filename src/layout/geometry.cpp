#include "layout/geometry.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace hotspot::layout {

Rect intersect(const Rect& a, const Rect& b) {
  Rect result{std::max(a.x0, b.x0), std::max(a.y0, b.y0),
              std::min(a.x1, b.x1), std::min(a.y1, b.y1)};
  if (result.empty()) {
    return Rect{};
  }
  return result;
}

Rect bounding_box(const Rect& a, const Rect& b) {
  if (a.empty()) {
    return b;
  }
  if (b.empty()) {
    return a;
  }
  return Rect{std::min(a.x0, b.x0), std::min(a.y0, b.y0),
              std::max(a.x1, b.x1), std::max(a.y1, b.y1)};
}

std::string to_string(const Rect& rect) {
  std::ostringstream out;
  out << "Rect(" << rect.x0 << ", " << rect.y0 << ", " << rect.x1 << ", "
      << rect.y1 << ")";
  return out.str();
}

Pattern::Pattern(std::vector<Rect> rects) : rects_(std::move(rects)) {
  for (const auto& rect : rects_) {
    HOTSPOT_CHECK(!rect.empty()) << "empty rect in pattern: " << to_string(rect);
  }
}

void Pattern::add(const Rect& rect) {
  HOTSPOT_CHECK(!rect.empty()) << "cannot add empty rect " << to_string(rect);
  rects_.push_back(rect);
}

Rect Pattern::bounding_box() const {
  Rect box{};
  for (const auto& rect : rects_) {
    box = layout::bounding_box(box, rect);
  }
  return box;
}

bool Pattern::covers(std::int64_t x, std::int64_t y) const {
  for (const auto& rect : rects_) {
    if (rect.contains(x, y)) {
      return true;
    }
  }
  return false;
}

void Pattern::translate(std::int64_t dx, std::int64_t dy) {
  for (auto& rect : rects_) {
    rect.x0 += dx;
    rect.x1 += dx;
    rect.y0 += dy;
    rect.y1 += dy;
  }
}

Pattern Pattern::clipped_to(const Rect& window) const {
  Pattern result;
  for (const auto& rect : rects_) {
    Rect cut = intersect(rect, window);
    if (!cut.empty()) {
      cut.x0 -= window.x0;
      cut.x1 -= window.x0;
      cut.y0 -= window.y0;
      cut.y1 -= window.y0;
      result.add(cut);
    }
  }
  return result;
}

}  // namespace hotspot::layout
