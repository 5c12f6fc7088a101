// The one Eq. 14 routine: alpha_T = |T_in| convolved with the kh x kw box
// filter K, evaluated only at a conv's output positions as a fixed-order
// separable float sum (DESIGN.md §3). For output (oy, ox) of a plane v
// under stride s and pad p, with window origin (y0, x0) = (oy*s - p,
// ox*s - p):
//   h(dy)  = |v(y0+dy, x0)| + |v(y0+dy, x0+1)| + ...   dx ascending
//   alpha  = (h(0) + h(1) + ...) * (1 / (kh*kw))       dy ascending
// every sum a left-to-right chain of rounded float additions. A window term
// outside the plane contributes +0.0f; adding +0.0f to a non-negative (or
// NaN) float leaves its bits unchanged, so padding may be added or
// skipped. The translation unit is compiled with -ffp-contract=off.
//
// The per-channel and scalar scalings of bitops/scaling.h, float-sim's
// BinaryConv2d and the plan's conv_input all evaluate alpha_T here.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/conv.h"

namespace hotspot::bitops {

// Scratch and passes for up to `planes` height x width planes at a time.
// The caller writes |v| of each plane's rows through row(), then run()
// evaluates alpha at every output position of the first `count` planes.
// Planes are stacked zero-padded in one buffer, so the horizontal pass is
// one flat loop over every plane's rows; the vertical pass runs per output
// row, except that planes at most 4 outputs wide (a 3x3 kernel) take it
// in one call over every plane with the columns unrolled. One instance per
// parallel chunk.
class BoxSum {
 public:
  BoxSum(std::int64_t height, std::int64_t width, const tensor::ConvSpec& spec,
         std::int64_t planes);

  // Bytes of scratch one plane takes, for sizing `planes`.
  static std::int64_t bytes_per_plane(std::int64_t height, std::int64_t width,
                                      const tensor::ConvSpec& spec);

  // The `width` floats of row y of plane q, to hold |v|; the padding around
  // them stays +0.0f.
  float* row(std::int64_t q, std::int64_t y) {
    return padded_.data() + (q * padded_h_ + pad_ + y) * row_floats_ + pad_;
  }

  // alpha of planes [0, count) into `dst`: outH x outW per plane, plane
  // after plane.
  void run(std::int64_t count, float* dst);

 private:
  std::int64_t kh_, kw_, stride_, pad_, out_h_, out_w_;
  // Padded plane height, and floats per padded row (width + 2*pad rounded
  // up to a multiple of the stride) and per row of horizontal sums.
  std::int64_t padded_h_, row_floats_, sum_floats_;
  float inv_area_;
  std::vector<float> padded_;
  std::unique_ptr<float[]> sums_;
};

}  // namespace hotspot::bitops
