// Fully connected layer.
#pragma once

#include "nn/module.h"
#include "util/rng.h"

namespace hotspot::nn {

class Linear : public Module {
 public:
  // Xavier-initialized weight and a zero bias.
  Linear(std::int64_t in_features, std::int64_t out_features, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]
  Tensor cached_input_;
};

}  // namespace hotspot::nn
