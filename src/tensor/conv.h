// Reference 2-D convolution (cross-correlation, NCHW) with stride/padding,
// plus the im2col/col2im transforms that both the float and binarized
// convolution paths are built on.
#pragma once

#include "tensor/tensor.h"

namespace hotspot::tensor {

struct ConvSpec {
  std::int64_t kernel_h = 3;
  std::int64_t kernel_w = 3;
  std::int64_t stride = 1;
  std::int64_t pad = 1;
};

// Output spatial extent for one axis: (in + 2*pad - kernel)/stride + 1.
std::int64_t conv_out_extent(std::int64_t in, std::int64_t kernel,
                             std::int64_t stride, std::int64_t pad);

// Unfolds input [N,C,H,W] into patches [N * out_h * out_w, C*kh*kw].
// Out-of-bounds (padding) positions contribute `pad_value` — the float path
// uses 0, the binarized path uses -1 so padding stays in {-1,+1}.
Tensor im2col(const Tensor& input, const ConvSpec& spec,
              float pad_value = 0.0f);

// Folds patch gradients [N*out_h*out_w, C*kh*kw] back into an input-shaped
// gradient [N,C,H,W]; the adjoint of im2col (padding contributions are
// dropped).
Tensor col2im(const Tensor& cols, const Shape& input_shape,
              const ConvSpec& spec);

// Forward convolution without a bias: input [N,Cin,H,W], weight
// [Cout,Cin,kh,kw] -> [N,Cout,outH,outW].
Tensor conv2d(const Tensor& input, const Tensor& weight, const ConvSpec& spec);

// Gradients of conv2d. `grad_output` is [N,Cout,outH,outW].
// Any of the outputs may be null to skip its computation.
void conv2d_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, const ConvSpec& spec,
                     Tensor* grad_input, Tensor* grad_weight);

}  // namespace hotspot::tensor
