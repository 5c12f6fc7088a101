#include "tensor/conv.h"

#include "tensor/tensor_ops.h"
#include "util/parallel.h"

namespace hotspot::tensor {

std::int64_t conv_out_extent(std::int64_t in, std::int64_t kernel,
                             std::int64_t stride, std::int64_t pad) {
  HOTSPOT_CHECK_GT(stride, 0);
  const std::int64_t padded = in + 2 * pad - kernel;
  HOTSPOT_CHECK_GE(padded, 0)
      << "kernel " << kernel << " larger than padded input " << in + 2 * pad;
  return padded / stride + 1;
}

Tensor im2col(const Tensor& input, const ConvSpec& spec, float pad_value) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t out_h = conv_out_extent(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t out_w = conv_out_extent(w, spec.kernel_w, spec.stride, spec.pad);
  const std::int64_t patch = c * spec.kernel_h * spec.kernel_w;
  const std::int64_t positions = out_h * out_w;
  Tensor cols({n * positions, patch});
  // Each patch row is written by exactly one chunk, so rows can be filled in
  // parallel without synchronization.
  util::parallel_for(0, n * positions, /*grain=*/16, [&](std::int64_t lo,
                                                         std::int64_t hi) {
    for (std::int64_t row = lo; row < hi; ++row) {
      const std::int64_t ni = row / positions;
      const std::int64_t p = row % positions;
      const std::int64_t oy = p / out_w;
      const std::int64_t ox = p % out_w;
      const std::int64_t iy0 = oy * spec.stride - spec.pad;
      const std::int64_t ix0 = ox * spec.stride - spec.pad;
      float* dst = cols.data() + row * patch;
      for (std::int64_t ci = 0; ci < c; ++ci) {
        for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
          const std::int64_t iy = iy0 + ky;
          for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
            const std::int64_t ix = ix0 + kx;
            const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
            *dst++ = inside ? input.at4(ni, ci, iy, ix) : pad_value;
          }
        }
      }
    }
  });
  return cols;
}

Tensor col2im(const Tensor& cols, const Shape& input_shape,
              const ConvSpec& spec) {
  HOTSPOT_CHECK_EQ(cols.rank(), 2);
  HOTSPOT_CHECK_EQ(static_cast<std::int64_t>(input_shape.size()), 4);
  const std::int64_t n = input_shape[0];
  const std::int64_t c = input_shape[1];
  const std::int64_t h = input_shape[2];
  const std::int64_t w = input_shape[3];
  const std::int64_t out_h = conv_out_extent(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t out_w = conv_out_extent(w, spec.kernel_w, spec.stride, spec.pad);
  HOTSPOT_CHECK_EQ(cols.dim(0), n * out_h * out_w);
  HOTSPOT_CHECK_EQ(cols.dim(1), c * spec.kernel_h * spec.kernel_w);
  Tensor image(input_shape);
  const std::int64_t positions = out_h * out_w;
  const std::int64_t patch = c * spec.kernel_h * spec.kernel_w;
  // Overlapping patches of one sample accumulate into the same pixels, so
  // parallelism is over samples: each sample's plane is touched by exactly
  // one chunk, and the accumulation order within a sample is fixed.
  util::parallel_for(0, n, /*grain=*/1, [&](std::int64_t n_lo,
                                            std::int64_t n_hi) {
    for (std::int64_t ni = n_lo; ni < n_hi; ++ni) {
      const float* src = cols.data() + ni * positions * patch;
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const std::int64_t iy0 = oy * spec.stride - spec.pad;
          const std::int64_t ix0 = ox * spec.stride - spec.pad;
          for (std::int64_t ci = 0; ci < c; ++ci) {
            for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
              const std::int64_t iy = iy0 + ky;
              for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
                const std::int64_t ix = ix0 + kx;
                const float value = *src++;
                if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
                  image.at4(ni, ci, iy, ix) += value;
                }
              }
            }
          }
        }
      }
    }
  });
  return image;
}

Tensor conv2d(const Tensor& input, const Tensor& weight, const ConvSpec& spec) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  HOTSPOT_CHECK_EQ(weight.rank(), 4);
  HOTSPOT_CHECK_EQ(weight.dim(1), input.dim(1))
      << "weight input channels vs input channels";
  HOTSPOT_CHECK_EQ(weight.dim(2), spec.kernel_h);
  HOTSPOT_CHECK_EQ(weight.dim(3), spec.kernel_w);
  const std::int64_t n = input.dim(0);
  const std::int64_t cout = weight.dim(0);
  const std::int64_t out_h =
      conv_out_extent(input.dim(2), spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t out_w =
      conv_out_extent(input.dim(3), spec.kernel_w, spec.stride, spec.pad);
  const std::int64_t patch = weight.dim(1) * spec.kernel_h * spec.kernel_w;

  const Tensor cols = im2col(input, spec);          // [n*oh*ow, patch]
  const Tensor wmat = weight.reshaped({cout, patch});
  const Tensor prod = matmul(cols, transpose2d(wmat));  // [n*oh*ow, cout]

  Tensor out({n, cout, out_h, out_w});
  const std::int64_t positions = out_h * out_w;
  util::parallel_for(0, n * positions, /*grain=*/64, [&](std::int64_t lo,
                                                         std::int64_t hi) {
    for (std::int64_t row = lo; row < hi; ++row) {
      const std::int64_t ni = row / positions;
      const std::int64_t p = row % positions;
      const float* src = prod.data() + row * cout;
      float* dst = out.data() + ni * cout * positions + p;
      for (std::int64_t co = 0; co < cout; ++co) {
        dst[co * positions] = src[co];
      }
    }
  });
  return out;
}

void conv2d_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, const ConvSpec& spec,
                     Tensor* grad_input, Tensor* grad_weight) {
  HOTSPOT_CHECK_EQ(grad_output.rank(), 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t cout = weight.dim(0);
  const std::int64_t out_h = grad_output.dim(2);
  const std::int64_t out_w = grad_output.dim(3);
  HOTSPOT_CHECK_EQ(grad_output.dim(0), n);
  HOTSPOT_CHECK_EQ(grad_output.dim(1), cout);
  const std::int64_t patch = weight.dim(1) * spec.kernel_h * spec.kernel_w;
  const std::int64_t positions = out_h * out_w;

  // Rearrange grad_output to the im2col row layout [n*oh*ow, cout].
  Tensor grad_rows({n * positions, cout});
  util::parallel_for(0, n * positions, /*grain=*/64, [&](std::int64_t lo,
                                                         std::int64_t hi) {
    for (std::int64_t row = lo; row < hi; ++row) {
      const std::int64_t ni = row / positions;
      const std::int64_t p = row % positions;
      const float* src = grad_output.data() + ni * cout * positions + p;
      float* dst = grad_rows.data() + row * cout;
      for (std::int64_t co = 0; co < cout; ++co) {
        dst[co] = src[co * positions];
      }
    }
  });

  if (grad_weight != nullptr) {
    const Tensor cols = im2col(input, spec);  // [n*oh*ow, patch]
    // dW = grad_rows^T @ cols, reshaped to weight shape.
    const Tensor gw = matmul(transpose2d(grad_rows), cols);  // [cout, patch]
    *grad_weight = gw.reshaped(weight.shape());
  }

  if (grad_input != nullptr) {
    const Tensor wmat = weight.reshaped({cout, patch});
    const Tensor grad_cols = matmul(grad_rows, wmat);  // [n*oh*ow, patch]
    *grad_input = col2im(grad_cols, input.shape(), spec);
  }
}

}  // namespace hotspot::tensor
