#include "nn/pool_layers.h"

#include <sstream>

namespace hotspot::nn {

MaxPool2d::MaxPool2d(std::int64_t window) : spec_{window, window} {}

Tensor MaxPool2d::forward(const Tensor& input) {
  cached_input_shape_ = input.shape();
  return tensor::max_pool2d(input, spec_, &cached_argmax_);
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  return tensor::max_pool2d_backward(grad_output, cached_argmax_,
                                     cached_input_shape_, spec_);
}

std::string MaxPool2d::name() const {
  std::ostringstream out;
  out << "MaxPool2d(w" << spec_.window << ", s" << spec_.stride << ")";
  return out.str();
}

Tensor GlobalAvgPool::forward(const Tensor& input) {
  cached_input_shape_ = input.shape();
  return tensor::global_avg_pool(input);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  return tensor::global_avg_pool_backward(grad_output, cached_input_shape_);
}

}  // namespace hotspot::nn
