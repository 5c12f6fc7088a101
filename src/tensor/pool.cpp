#include "tensor/pool.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace hotspot::tensor {

std::int64_t pool_out_extent(std::int64_t in, const PoolSpec& spec) {
  HOTSPOT_CHECK_GT(spec.stride, 0);
  HOTSPOT_CHECK_GT(spec.window, 0);
  if (in < spec.window) {
    return in > 0 ? 1 : 0;
  }
  return (in - spec.window) / spec.stride + 1;
}

namespace {

// One plane of max_pool2d, an output row at a time. Every window starts at
// (oy * stride, ox * stride) and spans ky x kx elements: pool_out_extent
// keeps full windows inside the plane, and an extent below the window gives
// one window clipped to the plane. Each output starts at its window's first
// element and takes every element of the window in y-then-x order that is
// strictly greater, so ties keep the first element and a NaN wins only when
// it comes first. Running the scan over a whole output row at once keeps
// the row's maxima in `dst` and every compare a branch-free select; with
// kArgmax the flat index of each winner is tracked in `index` (a mask
// select: a conditional store would compile to a data-dependent branch)
// and written to `arg`.
template <bool kArgmax>
void max_pool_plane(const float* src, std::int64_t w, std::int64_t out_h,
                    std::int64_t out_w, std::int64_t ky, std::int64_t kx,
                    std::int64_t stride, float* dst, float* arg,
                    std::int32_t* index) {
  for (std::int64_t oy = 0; oy < out_h; ++oy, dst += out_w) {
    const float* window_row = src + oy * stride * w;
    for (std::int64_t ox = 0; ox < out_w; ++ox) {
      dst[ox] = window_row[ox * stride];
      if constexpr (kArgmax) {
        index[ox] = static_cast<std::int32_t>(oy * stride * w + ox * stride);
      }
    }
    for (std::int64_t dy = 0; dy < ky; ++dy) {
      for (std::int64_t dx = 0; dx < kx; ++dx) {
        const float* tap = window_row + dy * w + dx;
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const float v = tap[ox * stride];
          const bool greater = v > dst[ox];
          dst[ox] = greater ? v : dst[ox];
          if constexpr (kArgmax) {
            const auto at = static_cast<std::int32_t>(
                (oy * stride + dy) * w + ox * stride + dx);
            const std::int32_t won = -static_cast<std::int32_t>(greater);
            index[ox] = (at & won) | (index[ox] & ~won);
          }
        }
      }
    }
    if constexpr (kArgmax) {
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        arg[ox] = static_cast<float>(index[ox]);
      }
      arg += out_w;
    }
  }
}

}  // namespace

Tensor max_pool2d(const Tensor& input, const PoolSpec& spec, Tensor* argmax) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  const std::int64_t planes = input.dim(0) * input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t out_h = pool_out_extent(h, spec);
  const std::int64_t out_w = pool_out_extent(w, spec);
  const std::int64_t ky = std::min(spec.window, h);
  const std::int64_t kx = std::min(spec.window, w);
  Tensor out({input.dim(0), input.dim(1), out_h, out_w});
  std::vector<std::int32_t> index;
  if (argmax != nullptr) {
    HOTSPOT_CHECK_LE(h * w, std::int64_t{INT32_MAX}) << "argmax plane size";
    *argmax = Tensor(out.shape());
    index.resize(static_cast<std::size_t>(out_w));
  }
  if (argmax == nullptr) {
    max_pool_planes(input.data(), planes, h, w, spec, out.data());
    return out;
  }
  for (std::int64_t plane = 0; plane < planes; ++plane) {
    const std::int64_t at = plane * out_h * out_w;
    max_pool_plane<true>(input.data() + plane * h * w, w, out_h, out_w, ky,
                         kx, spec.stride, out.data() + at,
                         argmax->data() + at, index.data());
  }
  return out;
}

void max_pool_planes(const float* src, std::int64_t planes, std::int64_t h,
                     std::int64_t w, const PoolSpec& spec, float* dst) {
  const std::int64_t out_h = pool_out_extent(h, spec);
  const std::int64_t out_w = pool_out_extent(w, spec);
  const std::int64_t ky = std::min(spec.window, h);
  const std::int64_t kx = std::min(spec.window, w);
  for (std::int64_t plane = 0; plane < planes; ++plane) {
    max_pool_plane<false>(src + plane * h * w, w, out_h, out_w, ky, kx,
                          spec.stride, dst + plane * out_h * out_w, nullptr,
                          nullptr);
  }
}

Tensor max_pool2d_backward(const Tensor& grad_output, const Tensor& argmax,
                           const Shape& input_shape, const PoolSpec&) {
  HOTSPOT_CHECK(grad_output.same_shape(argmax))
      << "argmax must come from the matching forward call";
  Tensor grad_input(input_shape);
  const std::int64_t n = grad_output.dim(0);
  const std::int64_t c = grad_output.dim(1);
  const std::int64_t out_h = grad_output.dim(2);
  const std::int64_t out_w = grad_output.dim(3);
  const std::int64_t w = input_shape[3];
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const auto flat =
              static_cast<std::int64_t>(argmax.at4(ni, ci, oy, ox));
          grad_input.at4(ni, ci, flat / w, flat % w) +=
              grad_output.at4(ni, ci, oy, ox);
        }
      }
    }
  }
  return grad_input;
}

Tensor global_avg_pool(const Tensor& input) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t hw = input.dim(2) * input.dim(3);
  HOTSPOT_CHECK_GT(hw, 0);
  Tensor out({n, c});
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float* plane = input.data() + (ni * c + ci) * hw;
      double acc = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) {
        acc += static_cast<double>(plane[i]);
      }
      out.at2(ni, ci) = static_cast<float>(acc / static_cast<double>(hw));
    }
  }
  return out;
}

Tensor global_avg_pool_backward(const Tensor& grad_output,
                                const Shape& input_shape) {
  HOTSPOT_CHECK_EQ(grad_output.rank(), 2);
  Tensor grad_input(input_shape);
  const std::int64_t n = input_shape[0];
  const std::int64_t c = input_shape[1];
  const std::int64_t hw = input_shape[2] * input_shape[3];
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float share =
          grad_output.at2(ni, ci) / static_cast<float>(hw);
      float* plane = grad_input.data() + (ni * c + ci) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        plane[i] = share;
      }
    }
  }
  return grad_input;
}

}  // namespace hotspot::tensor
