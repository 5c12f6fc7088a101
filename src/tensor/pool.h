// Pooling operations (NCHW) with backward passes.
#pragma once

#include "tensor/tensor.h"

namespace hotspot::tensor {

struct PoolSpec {
  std::int64_t window = 2;
  std::int64_t stride = 2;
};

// Output extent of one axis of `in` elements: full windows only, or one
// window clipped to the axis when it is shorter than the window.
std::int64_t pool_out_extent(std::int64_t in, const PoolSpec& spec);

// Max pooling. `argmax` (same shape as the output) records the flat H*W
// index of each selected element for the backward pass.
Tensor max_pool2d(const Tensor& input, const PoolSpec& spec, Tensor* argmax);
// max_pool2d without argmax over `planes` consecutive h x w planes at
// `src`, into their consecutive output planes at `dst`.
void max_pool_planes(const float* src, std::int64_t planes, std::int64_t h,
                     std::int64_t w, const PoolSpec& spec, float* dst);
Tensor max_pool2d_backward(const Tensor& grad_output, const Tensor& argmax,
                           const Shape& input_shape, const PoolSpec& spec);

// Global average pooling [N,C,H,W] -> [N,C].
Tensor global_avg_pool(const Tensor& input);
Tensor global_avg_pool_backward(const Tensor& grad_output,
                                const Shape& input_shape);

}  // namespace hotspot::tensor
