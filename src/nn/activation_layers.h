// Pointwise layers: ReLU and Flatten.
#pragma once

#include "nn/module.h"

namespace hotspot::nn {

class ReLU : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

// [N, C, H, W] -> [N, C*H*W].
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  tensor::Shape cached_input_shape_;
};

}  // namespace hotspot::nn
