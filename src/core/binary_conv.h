// Binarized convolution layer (paper Sec. 3.2-3.4).
//
// Holds real-valued weights W; the forward pass uses their binarization
//   W~ = alpha_W * sign(W),              alpha_W = ||W||_1 / n   (Eq. 8-9)
// and binarizes its input
//   X~ = alpha_T (x) sign(X),            alpha_T per Eq. 14,
// computing T_out = alpha_W * (sign(X) (*) sign(W)) (.) alpha_T  (Eq. 15).
//
// Backward uses the straight-through estimator for the input (Eq. 10-11)
// and the paper's weight gradient (Eq. 13):
//   dl/dW = dl/dW~ * (1/n + alpha_W * 1_{|W|<1}).
// Scaling factors are treated as constants in the backward pass, following
// XNOR-Net practice and Algorithm 1.
//
// forward() is float arithmetic emulating binarization: it trains the
// layer and is the "full-precision framework running a BNN" cost
// reference. The deployment path, with weights and activations packed into
// uint64 lanes and the convolution reduced to XNOR + popcount, is the
// layer's ConvStep in the compiled inference plan (core/inference_plan.h);
// the plan equals the Eq. 15 reference bit for bit and forward() agrees
// with it to float rounding (tests/core/conv_reference_test.cpp).
#pragma once

#include <string>
#include <vector>

#include "bitops/scaling.h"
#include "nn/module.h"
#include "tensor/conv.h"
#include "util/rng.h"

namespace hotspot::core {

class BinaryConv2d : public nn::Module {
 public:
  BinaryConv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bitops::InputScaling scaling, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;
  std::string name() const override;

  bitops::InputScaling scaling() const { return scaling_; }
  const tensor::ConvSpec& spec() const { return spec_; }
  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  nn::Parameter& weight() { return weight_; }

  // Roofline span label, assigned by the model builder
  // ("brnn.conv.block1a", ...). While tracing is enabled, forward() and the
  // layer's plan step open a span under it, so build_roofline() can join
  // measured per-layer time with the analytic cost model.
  void set_span_label(std::string label) { span_label_ = std::move(label); }
  const std::string& span_label() const { return span_label_; }

 private:
  Tensor forward_float_sim(const Tensor& input);

  std::int64_t in_channels_;
  std::int64_t out_channels_;
  tensor::ConvSpec spec_;
  bitops::InputScaling scaling_;
  nn::Parameter weight_;
  std::string span_label_;

  // Forward caches for backward.
  Tensor cached_input_;
  Tensor cached_cols_;        // im2col(sign(X)), alpha-scaled in per-channel mode
  Tensor cached_alpha_;       // alpha_T map ([N,Cin,oh,ow] or [N,1,oh,ow])
  Tensor cached_weight_tilde_;  // [Cout, n] rows of alpha_W * sign(W)
  Tensor cached_alpha_w_;     // [Cout]
};

}  // namespace hotspot::core
