// Full-precision 2-D convolution layer (used by the DAC'17 CNN baseline and
// as the float reference the binarized path is compared against).
#pragma once

#include "nn/module.h"
#include "tensor/conv.h"
#include "util/rng.h"

namespace hotspot::nn {

class Conv2d : public Module {
 public:
  // Xavier-initialized convolution without a bias (each conv of the DAC'17
  // CNN baseline feeds a batch norm, whose beta is the bias).
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad,
         util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;

  const tensor::ConvSpec& spec() const { return spec_; }
  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }

  Parameter& weight() { return weight_; }

 private:
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  tensor::ConvSpec spec_;
  Parameter weight_;
  Tensor cached_input_;
};

}  // namespace hotspot::nn
