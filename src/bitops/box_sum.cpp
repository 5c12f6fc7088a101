#include "bitops/box_sum.h"

#include <array>

#include "util/check.h"

namespace hotspot::bitops {
namespace {

// sums[j] = a[S*j] + a[S*j + 1] + ... + a[S*j + KW - 1], left to right,
// for j in [0, m).
template <std::int64_t KW, std::int64_t S>
void row_sums(const float* a, std::int64_t m, float* sums) {
  for (std::int64_t j = 0; j < m; ++j) {
    const float* v = a + S * j;
    float h = v[0];
    for (std::int64_t dx = 1; dx < KW; ++dx) {
      h = h + v[dx];
    }
    sums[j] = h;
  }
}

// The same chain for any kw and stride, one pass per window column.
void row_sums(const float* a, std::int64_t m, std::int64_t kw,
              std::int64_t s, float* sums) {
  for (std::int64_t j = 0; j < m; ++j) {
    sums[j] = a[s * j];
  }
  for (std::int64_t dx = 1; dx < kw; ++dx) {
    for (std::int64_t j = 0; j < m; ++j) {
      sums[j] = sums[j] + a[s * j + dx];
    }
  }
}

// dst[x] = (rows[x] + rows[stride + x] + ... over KH rows) * inv for
// x in [0, n).
template <std::int64_t KH>
void column_sums(const float* rows, std::int64_t stride, std::int64_t n,
                 float inv, float* dst) {
  for (std::int64_t x = 0; x < n; ++x) {
    float total = rows[x];
    for (std::int64_t dy = 1; dy < KH; ++dy) {
      total = total + rows[dy * stride + x];
    }
    dst[x] = total * inv;
  }
}

void column_sums(const float* rows, std::int64_t stride, std::int64_t n,
                 std::int64_t kh, float inv, float* dst) {
  for (std::int64_t x = 0; x < n; ++x) {
    dst[x] = rows[x];
  }
  for (std::int64_t dy = 1; dy < kh; ++dy) {
    for (std::int64_t x = 0; x < n; ++x) {
      dst[x] = dst[x] + rows[dy * stride + x];
    }
  }
  for (std::int64_t x = 0; x < n; ++x) {
    dst[x] = dst[x] * inv;
  }
}

// The vertical pass of `count` stacked planes of OW output columns, KH
// rows each: column_sums<KH> at every output row, with the row loop over
// all planes in one call and the OW columns unrolled, so narrow planes
// pay no per-row loop set-up.
template <std::int64_t KH, std::int64_t OW>
void narrow_column_sums(const float* sums, std::int64_t sum_floats,
                        std::int64_t padded_h, std::int64_t stride,
                        std::int64_t out_h, std::int64_t count, float inv,
                        float* dst) {
  for (std::int64_t q = 0; q < count; ++q) {
    const float* plane = sums + q * padded_h * sum_floats;
    for (std::int64_t oy = 0; oy < out_h; ++oy, dst += OW) {
      const float* top = plane + oy * stride * sum_floats;
      for (std::int64_t x = 0; x < OW; ++x) {
        float total = top[x];
        for (std::int64_t dy = 1; dy < KH; ++dy) {
          total = total + top[dy * sum_floats + x];
        }
        dst[x] = total * inv;
      }
    }
  }
}

std::int64_t round_up(std::int64_t value, std::int64_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

}  // namespace

BoxSum::BoxSum(std::int64_t height, std::int64_t width,
               const tensor::ConvSpec& spec, std::int64_t planes)
    : kh_(spec.kernel_h),
      kw_(spec.kernel_w),
      stride_(spec.stride),
      pad_(spec.pad),
      out_h_(tensor::conv_out_extent(height, kh_, stride_, pad_)),
      out_w_(tensor::conv_out_extent(width, kw_, stride_, pad_)),
      padded_h_(height + 2 * pad_),
      row_floats_(round_up(width + 2 * pad_, stride_)),
      sum_floats_(row_floats_ / stride_),
      inv_area_(1.0f / static_cast<float>(kh_ * kw_)) {
  HOTSPOT_CHECK(out_h_ > 0 && out_w_ > 0 && planes > 0);
  // The flat horizontal pass reads up to kw - 1 floats past the last row.
  padded_.assign(static_cast<std::size_t>(planes * padded_h_ * row_floats_ +
                                          kw_),
                 0.0f);
  sums_ = std::make_unique_for_overwrite<float[]>(
      static_cast<std::size_t>(planes * padded_h_ * sum_floats_));
}

std::int64_t BoxSum::bytes_per_plane(std::int64_t height, std::int64_t width,
                                     const tensor::ConvSpec& spec) {
  const std::int64_t row_floats =
      round_up(width + 2 * spec.pad, spec.stride);
  return static_cast<std::int64_t>(sizeof(float)) * (height + 2 * spec.pad) *
         (row_floats + row_floats / spec.stride);
}

void BoxSum::run(std::int64_t count, float* dst) {
  // Horizontal sums at every output column of every padded row of the
  // `count` planes, in one pass over the stacked rows: sums_ row r, column
  // ox is the window row starting at padded column ox * stride. Columns
  // past outW mix neighbouring rows and are never read.
  const float* a = padded_.data();
  float* sums = sums_.get();
  const std::int64_t m = count * padded_h_ * sum_floats_;
  if (kw_ == 3 && stride_ == 1) {
    row_sums<3, 1>(a, m, sums);
  } else if (kw_ == 3 && stride_ == 2) {
    row_sums<3, 2>(a, m, sums);
  } else {
    row_sums(a, m, kw_, stride_, sums);
  }
  // Vertical sums of the kh window rows at each output row, scaled.
  if (kh_ == 3 && out_w_ <= 4) {
    constexpr std::array narrow = {
        &narrow_column_sums<3, 1>, &narrow_column_sums<3, 2>,
        &narrow_column_sums<3, 3>, &narrow_column_sums<3, 4>};
    narrow[static_cast<std::size_t>(out_w_ - 1)](
        sums, sum_floats_, padded_h_, stride_, out_h_, count, inv_area_, dst);
    return;
  }
  for (std::int64_t q = 0; q < count; ++q) {
    for (std::int64_t oy = 0; oy < out_h_; ++oy) {
      const float* top = sums + (q * padded_h_ + oy * stride_) * sum_floats_;
      float* out = dst + (q * out_h_ + oy) * out_w_;
      if (kh_ == 3) {
        column_sums<3>(top, sum_floats_, out_w_, inv_area_, out);
      } else {
        column_sums(top, sum_floats_, out_w_, kh_, inv_area_, out);
      }
    }
  }
}

}  // namespace hotspot::bitops
