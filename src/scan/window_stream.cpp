#include "scan/window_stream.h"

#include <algorithm>
#include <span>

#include "util/check.h"

namespace hotspot::scan {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// The cells [first, last] that the half-open interval [lo, hi) touches,
// cells `edge` wide from `origin` (lo >= origin for every rect and every
// window the stream yields). One division finds the first cell; the last
// needs a second only when the interval reaches past the first cell's far
// edge. Callers clamp the span to the grid.
struct CellSpan {
  std::int64_t first = 0;
  std::int64_t last = 0;
};

CellSpan cell_span(std::int64_t lo, std::int64_t hi, std::int64_t origin,
                   std::int64_t edge) {
  const std::int64_t first = (lo - origin) / edge;
  const std::int64_t far_edge = origin + (first + 1) * edge;
  return {first, hi - 1 < far_edge ? first : (hi - 1 - origin) / edge};
}

}  // namespace

ClipWindowStream::ClipWindowStream(const layout::Pattern& full,
                                   std::int64_t size_nm, std::int64_t step_nm)
    : full_(&full), size_nm_(size_nm), step_nm_(step_nm) {
  HOTSPOT_CHECK_GT(size_nm, 0);
  HOTSPOT_CHECK_GT(step_nm, 0);
  HOTSPOT_CHECK_LE(step_nm, size_nm)
      << "step larger than the window edge leaves uncovered stripes "
         "between windows";
  if (full.empty()) {
    return;
  }
  const layout::Rect box = full.bounding_box();
  origin_x_ = box.x0;
  origin_y_ = box.y0;
  // Same grid as layout::extract_clips: one window per step until the
  // position passes the bounding box edge.
  cols_ = ceil_div(box.x1 - box.x0, step_nm_);
  rows_ = ceil_div(box.y1 - box.y0, step_nm_);

  // Bucket the rects by size_nm-edge cells so one window materialization
  // only visits candidates, not the whole chip. A counting sort into one
  // flat array: count each cell's rects, prefix-sum the counts into each
  // cell's end, then fill back to front so each cell's end walks down to
  // its begin and its rect indices come out ascending.
  cell_cols_ = ceil_div(box.x1 - box.x0, size_nm_);
  cell_rows_ = ceil_div(box.y1 - box.y0, size_nm_);
  cell_begin_.assign(static_cast<std::size_t>(cell_cols_ * cell_rows_ + 1), 0);
  const auto& rects = full.rects();
  constexpr std::uint64_t kIndexLimit = std::uint64_t{1} << 32;
  HOTSPOT_CHECK_LT(static_cast<std::uint64_t>(rects.size()), kIndexLimit)
      << "the bucket index holds 32-bit rect indices";
  const auto for_each_cell = [&](const layout::Rect& rect, auto&& visit) {
    const CellSpan xs = cell_span(rect.x0, rect.x1, origin_x_, size_nm_);
    const CellSpan ys = cell_span(rect.y0, rect.y1, origin_y_, size_nm_);
    for (std::int64_t cy = ys.first; cy <= ys.last; ++cy) {
      for (std::int64_t cx = xs.first; cx <= xs.last; ++cx) {
        visit(static_cast<std::size_t>(cy * cell_cols_ + cx));
      }
    }
  };
  for (const layout::Rect& rect : rects) {
    for_each_cell(rect, [&](std::size_t cell) { ++cell_begin_[cell]; });
  }
  // A rect counts once per cell it touches, so the list lengths can sum
  // past the rect count; the prefix sum runs in 64 bits and is checked.
  std::uint64_t total = 0;
  for (std::uint32_t& end : cell_begin_) {
    total += end;
    HOTSPOT_CHECK_LT(total, kIndexLimit)
        << "the bucket index holds 32-bit offsets";
    end = static_cast<std::uint32_t>(total);
  }
  cell_rects_.resize(static_cast<std::size_t>(total));
  for (std::size_t i = rects.size(); i-- > 0;) {
    for_each_cell(rects[i], [&](std::size_t cell) {
      cell_rects_[--cell_begin_[cell]] = static_cast<std::uint32_t>(i);
    });
  }
}

WindowRef ClipWindowStream::window_at(std::int64_t index) const {
  HOTSPOT_CHECK(index >= 0 && index < window_count())
      << "window index " << index << " out of range for " << window_count();
  WindowRef ref;
  ref.index = index;
  ref.ix = index % cols_;
  ref.iy = index / cols_;
  const std::int64_t x = origin_x_ + ref.ix * step_nm_;
  const std::int64_t y = origin_y_ + ref.iy * step_nm_;
  ref.window = layout::Rect{x, y, x + size_nm_, y + size_nm_};
  return ref;
}

bool ClipWindowStream::next(WindowRef& out) {
  if (cursor_ >= window_count()) {
    return false;
  }
  out = window_at(cursor_);
  ++cursor_;
  return true;
}

void ClipWindowStream::materialize(
    const WindowRef& ref, layout::Pattern& out,
    std::vector<std::uint32_t>& candidates) const {
  out.clear();
  // Candidate rects from the cells the window overlaps, visited in
  // ascending (insertion) order so the result matches Pattern::clipped_to
  // exactly. One cell's list is already ascending and unique, so only a
  // window spanning several cells gathers, sorts and dedups.
  const CellSpan xs =
      cell_span(ref.window.x0, ref.window.x1, origin_x_, size_nm_);
  const CellSpan ys =
      cell_span(ref.window.y0, ref.window.y1, origin_y_, size_nm_);
  const std::int64_t cx0 = std::max<std::int64_t>(0, xs.first);
  const std::int64_t cx1 = std::min<std::int64_t>(cell_cols_ - 1, xs.last);
  const std::int64_t cy0 = std::max<std::int64_t>(0, ys.first);
  const std::int64_t cy1 = std::min<std::int64_t>(cell_rows_ - 1, ys.last);
  const auto cell_list = [&](std::int64_t cx, std::int64_t cy) {
    const auto cell = static_cast<std::size_t>(cy * cell_cols_ + cx);
    return std::span<const std::uint32_t>(cell_rects_).subspan(
        cell_begin_[cell], cell_begin_[cell + 1] - cell_begin_[cell]);
  };
  std::span<const std::uint32_t> visit;
  if (cx0 == cx1 && cy0 == cy1) {
    visit = cell_list(cx0, cy0);
  } else {
    candidates.clear();
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
        const auto cell = cell_list(cx, cy);
        candidates.insert(candidates.end(), cell.begin(), cell.end());
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    visit = candidates;
  }

  const auto& rects = full_->rects();
  for (const std::uint32_t i : visit) {
    layout::Rect cut = layout::intersect(rects[i], ref.window);
    if (!cut.empty()) {
      cut.x0 -= ref.window.x0;
      cut.x1 -= ref.window.x0;
      cut.y0 -= ref.window.y0;
      cut.y1 -= ref.window.y0;
      out.add(cut);
    }
  }
}

layout::Clip ClipWindowStream::materialize(const WindowRef& ref) const {
  layout::Clip clip{layout::Pattern(), size_nm_};
  std::vector<std::uint32_t> candidates;
  materialize(ref, clip.pattern, candidates);
  return clip;
}

}  // namespace hotspot::scan
