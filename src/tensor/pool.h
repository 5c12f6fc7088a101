// Pooling operations (NCHW) with backward passes.
#pragma once

#include "tensor/tensor.h"

namespace hotspot::tensor {

struct PoolSpec {
  std::int64_t window = 2;
  std::int64_t stride = 2;
};

// Max pooling. `argmax` (same shape as the output) records the flat H*W
// index of each selected element for the backward pass.
Tensor max_pool2d(const Tensor& input, const PoolSpec& spec, Tensor* argmax);
Tensor max_pool2d_backward(const Tensor& grad_output, const Tensor& argmax,
                           const Shape& input_shape, const PoolSpec& spec);

// Global average pooling [N,C,H,W] -> [N,C].
Tensor global_avg_pool(const Tensor& input);
Tensor global_avg_pool_backward(const Tensor& grad_output,
                                const Shape& input_shape);

}  // namespace hotspot::tensor
