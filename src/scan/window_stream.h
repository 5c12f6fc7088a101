// Lazy clip-window iteration for full-chip scans (DESIGN.md §11).
//
// `layout::extract_clips` materializes every window's clipped geometry up
// front — O(windows × rects) memory on a real chip. ClipWindowStream walks
// the same window grid (identical positions, identical scan order) but
// materializes one window's geometry on demand, so a scan holds O(batch)
// windows alive instead of the whole chip.
//
// A bucket index over the chip's rects (cell edge = window edge) makes each
// materialization touch only the rects that can intersect the window,
// instead of every rect on the chip. The index is one flat array of rect
// indices, each cell's ascending, built by a counting sort; its entries are
// 32-bit, so a chip holds fewer than 2^32 rects. Candidates are
// visited in insertion order, so the produced Clip is bit-identical — same
// rects, same order — to Pattern::clipped_to over the full rect list. A
// caller that materializes window after window passes its own pattern and
// candidate buffers, so a window allocates nothing once they have grown.
#pragma once

#include <cstdint>
#include <vector>

#include "layout/clip.h"
#include "layout/geometry.h"

namespace hotspot::scan {

// One window position in the scan grid.
struct WindowRef {
  std::int64_t index = 0;  // scan order: iy * cols + ix
  std::int64_t ix = 0;     // column in the window grid
  std::int64_t iy = 0;     // row in the window grid
  layout::Rect window;     // absolute chip coordinates
};

class ClipWindowStream {
 public:
  // Walks size_nm x size_nm windows over `full`'s bounding box with the
  // given step. Requires step_nm <= size_nm (a larger step would leave
  // uncovered stripes, the same contract as layout::extract_clips). The
  // pattern must outlive the stream.
  ClipWindowStream(const layout::Pattern& full, std::int64_t size_nm,
                   std::int64_t step_nm);

  std::int64_t cols() const { return cols_; }
  std::int64_t rows() const { return rows_; }
  std::int64_t window_count() const { return cols_ * rows_; }
  // Bounding-box origin the window grid is anchored at.
  std::int64_t origin_x() const { return origin_x_; }
  std::int64_t origin_y() const { return origin_y_; }
  std::int64_t size_nm() const { return size_nm_; }
  std::int64_t step_nm() const { return step_nm_; }

  // Advances to the next window in scan order (row-major, x fastest).
  // Returns false when the grid is exhausted.
  bool next(WindowRef& out);

  // Restarts the scan from the first window.
  void reset() { cursor_ = 0; }

  // Positions the cursor so the next next() call yields window `index`
  // (clamped to [0, window_count()]). Journal resume uses this to skip the
  // windows a previous run already scored.
  void seek(std::int64_t index) {
    cursor_ = index < 0 ? 0
                        : (index > window_count() ? window_count() : index);
  }

  // Window geometry for an arbitrary grid index (0 <= index < count).
  WindowRef window_at(std::int64_t index) const;

  // Clipped geometry of one window, translated to the window's local frame:
  // `out` is cleared, then holds exactly full.clipped_to(ref.window)'s
  // rects. `candidates` is scratch for windows spanning several index
  // cells. Both keep their capacity across calls.
  void materialize(const WindowRef& ref, layout::Pattern& out,
                   std::vector<std::uint32_t>& candidates) const;

  // The same geometry in a fresh Clip of edge size_nm().
  layout::Clip materialize(const WindowRef& ref) const;

 private:
  const layout::Pattern* full_;
  std::int64_t size_nm_;
  std::int64_t step_nm_;
  std::int64_t origin_x_ = 0;
  std::int64_t origin_y_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t rows_ = 0;
  std::int64_t cursor_ = 0;

  // Bucket index, cell edge = size_nm, anchored at the bounding-box origin:
  // cell c's rect indices, ascending, are
  // cell_rects_[cell_begin_[c], cell_begin_[c + 1]). Both are 32-bit:
  // the constructor checks that the rect count and the total of per-cell
  // list lengths fit.
  std::int64_t cell_cols_ = 0;
  std::int64_t cell_rows_ = 0;
  std::vector<std::uint32_t> cell_begin_;
  std::vector<std::uint32_t> cell_rects_;
};

}  // namespace hotspot::scan
