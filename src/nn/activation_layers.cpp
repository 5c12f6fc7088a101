#include "nn/activation_layers.h"

namespace hotspot::nn {

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor output(input.shape());
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    output[i] = input[i] > 0.0f ? input[i] : 0.0f;
  }
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  HOTSPOT_CHECK(grad_output.same_shape(cached_input_));
  Tensor grad_input(grad_output.shape());
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[i] = cached_input_[i] > 0.0f ? grad_output[i] : 0.0f;
  }
  return grad_input;
}

Tensor Flatten::forward(const Tensor& input) {
  cached_input_shape_ = input.shape();
  HOTSPOT_CHECK_GE(input.rank(), 2);
  const std::int64_t rows = input.dim(0);
  return input.reshaped({rows, input.numel() / rows});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_input_shape_);
}

}  // namespace hotspot::nn
