#include "nn/conv_layer.h"

#include <sstream>

#include "nn/init.h"
#include "tensor/tensor_ops.h"

namespace hotspot::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      spec_{kernel, kernel, stride, pad} {
  HOTSPOT_CHECK_GT(in_channels, 0);
  HOTSPOT_CHECK_GT(out_channels, 0);
  const tensor::Shape weight_shape{out_channels, in_channels, kernel, kernel};
  const auto [fan_in, fan_out] = compute_fans(weight_shape);
  weight_ = Parameter("weight",
                      xavier_uniform(weight_shape, fan_in, fan_out, rng));
}

Tensor Conv2d::forward(const Tensor& input) {
  // The input copy is only needed by backward(); inference-mode forwards
  // (e.g. the float baselines' predict sweeps) skip it.
  if (training()) {
    cached_input_ = input;
  }
  return tensor::conv2d(input, weight_.value, spec_);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  Tensor grad_input;
  Tensor grad_weight;
  tensor::conv2d_backward(cached_input_, weight_.value, grad_output, spec_,
                          &grad_input, &grad_weight);
  tensor::add_inplace(weight_.grad, grad_weight);
  return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() { return {&weight_}; }

std::string Conv2d::name() const {
  std::ostringstream out;
  out << "Conv2d(" << in_channels_ << "->" << out_channels_ << ", k"
      << spec_.kernel_h << ", s" << spec_.stride << ", p" << spec_.pad << ")";
  return out.str();
}

}  // namespace hotspot::nn
