// Pooling layers over NCHW activations.
#pragma once

#include "nn/module.h"
#include "tensor/pool.h"

namespace hotspot::nn {

class MaxPool2d : public Module {
 public:
  // Non-overlapping window x window pooling (stride = window).
  explicit MaxPool2d(std::int64_t window);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override;
  const tensor::PoolSpec& spec() const { return spec_; }

 private:
  tensor::PoolSpec spec_;
  tensor::Shape cached_input_shape_;
  Tensor cached_argmax_;
};

// [N,C,H,W] -> [N,C]; the head of the residual networks.
class GlobalAvgPool : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  tensor::Shape cached_input_shape_;
};

}  // namespace hotspot::nn
