#include "bitops/scaling.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/tensor_ops.h"
#include "util/parallel.h"

namespace hotspot::bitops {

const char* to_string(InputScaling mode) {
  switch (mode) {
    case InputScaling::kPerChannel:
      return "per-channel";
    case InputScaling::kScalar:
      return "scalar";
    case InputScaling::kNone:
      return "none";
  }
  return "?";
}

tensor::Tensor weight_scales(const tensor::Tensor& weight) {
  HOTSPOT_CHECK_EQ(weight.rank(), 4);
  const std::int64_t cout = weight.dim(0);
  const std::int64_t n = weight.numel() / cout;
  tensor::Tensor scales({cout});
  for (std::int64_t co = 0; co < cout; ++co) {
    double total = 0.0;
    const float* filter = weight.data() + co * n;
    for (std::int64_t i = 0; i < n; ++i) {
      total += std::fabs(static_cast<double>(filter[i]));
    }
    scales[co] = static_cast<float>(total / static_cast<double>(n));
  }
  return scales;
}

namespace {

// Integral-image box filter over |transform(v, c)|, writing the out_h x
// out_w plane of (ni, ci) contiguously at dst_of(ni, ci). transform is
// inlined per call site; the public entry points instantiate it with the
// identity (plain |v|) and with the batch-norm affine, so both accumulate
// the same double sums in the same order over their respective float
// values. Planes are independent and each is summed by one thread, so the
// result is the same at every thread count.
template <typename TransformFn, typename DstFn>
void box_filter_abs_mean_impl(const tensor::Tensor& input,
                              const tensor::ConvSpec& spec,
                              TransformFn&& transform, DstFn&& dst_of) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t out_h =
      tensor::conv_out_extent(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t out_w =
      tensor::conv_out_extent(w, spec.kernel_w, spec.stride, spec.pad);
  const float inv_area =
      1.0f / static_cast<float>(spec.kernel_h * spec.kernel_w);

  util::parallel_for(0, n * c, /*grain=*/1, [&](std::int64_t lo,
                                                std::int64_t hi) {
    // Integral image S[y][x] = sum of |input| over [0,y) x [0,x); window
    // sums become four lookups. Per-chunk scratch; row 0 and column 0 stay
    // zero for every plane.
    std::vector<double> integral(
        static_cast<std::size_t>((h + 1) * (w + 1)), 0.0);
    for (std::int64_t plane_index = lo; plane_index < hi; ++plane_index) {
      const std::int64_t ni = plane_index / c;
      const std::int64_t ci = plane_index % c;
      const float* plane = input.data() + plane_index * h * w;
      for (std::int64_t y = 0; y < h; ++y) {
        double row_sum = 0.0;
        for (std::int64_t x = 0; x < w; ++x) {
          row_sum += std::fabs(
              static_cast<double>(transform(plane[y * w + x], ci)));
          integral[static_cast<std::size_t>((y + 1) * (w + 1) + x + 1)] =
              integral[static_cast<std::size_t>(y * (w + 1) + x + 1)] +
              row_sum;
        }
      }
      float* dst = dst_of(ni, ci);
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        // Window rows clamped to the image (zero padding contributes 0).
        const std::int64_t y0 = std::max<std::int64_t>(
            0, oy * spec.stride - spec.pad);
        const std::int64_t y1 = std::min(
            h, oy * spec.stride - spec.pad + spec.kernel_h);
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const std::int64_t x0 = std::max<std::int64_t>(
              0, ox * spec.stride - spec.pad);
          const std::int64_t x1 = std::min(
              w, ox * spec.stride - spec.pad + spec.kernel_w);
          const double total =
              integral[static_cast<std::size_t>(y1 * (w + 1) + x1)] -
              integral[static_cast<std::size_t>(y0 * (w + 1) + x1)] -
              integral[static_cast<std::size_t>(y1 * (w + 1) + x0)] +
              integral[static_cast<std::size_t>(y0 * (w + 1) + x0)];
          dst[oy * out_w + ox] = static_cast<float>(total) * inv_area;
        }
      }
    }
  });
}

// Channel mean of |transform(v, c)| -> [N,1,H,W], box filtered: the
// XNOR-Net scalar alpha_T. Like box_filter_abs_mean_impl, one loop serves
// the plain and the batch-norm-affine entry points.
template <typename TransformFn>
tensor::Tensor input_scales_scalar_impl(const tensor::Tensor& input,
                                        const tensor::ConvSpec& spec,
                                        TransformFn&& transform) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  tensor::Tensor mean_abs({n, 1, h, w});
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t x = 0; x < w; ++x) {
        double total = 0.0;
        for (std::int64_t ci = 0; ci < c; ++ci) {
          total += std::fabs(static_cast<double>(
              transform(input.at4(ni, ci, y, x), ci)));
        }
        mean_abs.at4(ni, 0, y, x) =
            static_cast<float>(total / static_cast<double>(c));
      }
    }
  }
  return box_filter_abs_mean(mean_abs, spec);
}

constexpr auto kIdentity = [](float v, std::int64_t) { return v; };

}  // namespace

tensor::Tensor box_filter_abs_mean(const tensor::Tensor& input,
                                   const tensor::ConvSpec& spec) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  const std::int64_t c = input.dim(1);
  const std::int64_t out_h = tensor::conv_out_extent(
      input.dim(2), spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t out_w = tensor::conv_out_extent(
      input.dim(3), spec.kernel_w, spec.stride, spec.pad);
  tensor::Tensor out({input.dim(0), c, out_h, out_w});
  box_filter_abs_mean_impl(input, spec, kIdentity,
                           [&](std::int64_t ni, std::int64_t ci) {
                             return out.data() + (ni * c + ci) * out_h * out_w;
                           });
  return out;
}

tensor::Tensor input_scales_per_channel_affine_lanes(
    const tensor::Tensor& input, const tensor::ConvSpec& spec,
    const ChannelAffine& affine) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  const std::int64_t positions =
      tensor::conv_out_extent(input.dim(2), spec.kernel_h, spec.stride,
                              spec.pad) *
      tensor::conv_out_extent(input.dim(3), spec.kernel_w, spec.stride,
                              spec.pad);
  const std::int64_t lanes = (input.dim(0) * positions + 63) / 64 * 64;
  tensor::Tensor out({input.dim(1), lanes});  // zero-filled
  box_filter_abs_mean_impl(
      input, spec,
      [&affine](float v, std::int64_t c) { return affine_eval(affine, v, c); },
      [&](std::int64_t ni, std::int64_t ci) {
        return out.data() + ci * lanes + ni * positions;
      });
  return out;
}

tensor::Tensor input_scales_scalar_affine(const tensor::Tensor& input,
                                          const tensor::ConvSpec& spec,
                                          const ChannelAffine& affine) {
  return input_scales_scalar_impl(
      input, spec,
      [&affine](float v, std::int64_t c) { return affine_eval(affine, v, c); });
}

tensor::Tensor input_scales_per_channel(const tensor::Tensor& input,
                                        const tensor::ConvSpec& spec) {
  return box_filter_abs_mean(input, spec);
}

tensor::Tensor input_scales_scalar(const tensor::Tensor& input,
                                   const tensor::ConvSpec& spec) {
  return input_scales_scalar_impl(input, spec, kIdentity);
}

}  // namespace hotspot::bitops
