#include "nn/linear_layer.h"

#include <sstream>

#include "nn/init.h"
#include "tensor/tensor_ops.h"

namespace hotspot::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               util::Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  HOTSPOT_CHECK_GT(in_features, 0);
  HOTSPOT_CHECK_GT(out_features, 0);
  weight_ = Parameter("weight",
                      xavier_uniform({out_features, in_features}, in_features,
                                     out_features, rng));
  bias_ = Parameter("bias", Tensor({out_features}));
}

Tensor Linear::forward(const Tensor& input) {
  HOTSPOT_CHECK_EQ(input.rank(), 2);
  HOTSPOT_CHECK_EQ(input.dim(1), in_features_);
  cached_input_ = input;
  Tensor output = tensor::matmul(input, tensor::transpose2d(weight_.value));
  for (std::int64_t r = 0; r < output.dim(0); ++r) {
    for (std::int64_t c = 0; c < out_features_; ++c) {
      output.at2(r, c) += bias_.value[c];
    }
  }
  return output;
}

Tensor Linear::backward(const Tensor& grad_output) {
  HOTSPOT_CHECK_EQ(grad_output.rank(), 2);
  HOTSPOT_CHECK_EQ(grad_output.dim(1), out_features_);
  // dW += g^T x ; dx = g W ; db += column sums of g.
  tensor::add_inplace(
      weight_.grad,
      tensor::matmul(tensor::transpose2d(grad_output), cached_input_));
  for (std::int64_t c = 0; c < out_features_; ++c) {
    double total = 0.0;
    for (std::int64_t r = 0; r < grad_output.dim(0); ++r) {
      total += static_cast<double>(grad_output.at2(r, c));
    }
    bias_.grad[c] += static_cast<float>(total);
  }
  return tensor::matmul(grad_output, weight_.value);
}

std::vector<Parameter*> Linear::parameters() { return {&weight_, &bias_}; }

std::string Linear::name() const {
  std::ostringstream out;
  out << "Linear(" << in_features_ << "->" << out_features_ << ")";
  return out.str();
}

}  // namespace hotspot::nn
