// Batch normalization over NCHW activations (Ioffe & Szegedy).
//
// In the paper's BNN block (Fig. 3) batch norm runs immediately before the
// binarizing layer: centering the pre-activation distribution halves the
// information lost by sign(), which bench_fig3_block quantifies.
#pragma once

#include "nn/module.h"

namespace hotspot::nn {

class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, float momentum = 0.1f,
                       float epsilon = 1e-5f);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override;
  void collect_state(const std::string& prefix,
                     std::vector<NamedTensor>& out) override;

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  // Direct access for serialization.
  Tensor& mutable_running_mean() { return running_mean_; }
  Tensor& mutable_running_var() { return running_var_; }
  std::int64_t channels() const { return channels_; }
  float momentum() const { return momentum_; }
  float epsilon() const { return epsilon_; }

  // Per-channel 1/sqrt(var + eps) exactly as the inference forward computes
  // it, including the negative-variance clamp. The inference plan copies
  // these floats and evaluates the BN inline with them, so its bits and
  // scales equal those of this layer's materialized eval output.
  Tensor inference_inv_std() const;

 private:
  std::int64_t channels_;
  float momentum_;
  float epsilon_;
  Parameter gamma_;
  Parameter beta_;
  Tensor running_mean_;
  Tensor running_var_;

  // Forward caches for backward.
  Tensor cached_xhat_;
  Tensor cached_inv_std_;  // [C]
  tensor::Shape cached_input_shape_;
};

}  // namespace hotspot::nn
