// Compiled inference plan: the one deployment path of a trained BrnnModel
// (DESIGN.md §14).
//
// InferencePlan::compile walks the model's modules once and lowers them into
// fixed stage objects that own everything inference needs: the packed
// filters and alpha_W for the dispatched XNOR kernel, each conv's BN affine,
// and copies of the head's BN and fc parameters. A compiled plan is
// immutable: run() uses only call-local scratch and never calls
// nn::Module::forward, so any number of threads may run one plan at once.
// BrnnModel publishes a fresh plan whenever a parameter version, the XNOR
// kernel, or the BN statistics change (see BrnnModel::plan()).
//
// The conv, max-pool and residual activations are channel-major,
// [C, N, H, W], so a conv's output, the next conv's alpha_T rows and its
// sign streams share the direct conv's lane order (lane = n*H*W + p). run()
// reads its NCHW input in that order and converts back to NCHW once, before
// the head BN.
//
// Each conv step runs two stages, in the style of lib_nn's Filter2D
// (SNIPPETS.md snippet 1):
//   input     - sign streams of the BN output and the alpha_T of the
//               layer's scaling (per-channel lanes, the scalar map, or
//               none), both from one pass over the raw input
//               (bitops::conv_input) that evaluates the BN expression
//               (bitops/channel_affine.h) once per element, so no BN tensor
//               is materialized;
//   aggregate - the position-sliced direct binary conv (core::direct_conv),
//               the same for every scaling.
// The input stage evaluates the layer's own float expression, so the plan
// binarizes exactly what the BN layer would output, for every statistic,
// and its logits are bit-identical on every kernel.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bitops/kernels/xnor_kernel.h"
#include "bitops/scaling.h"
#include "core/packed_conv.h"
#include "tensor/conv.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

namespace hotspot::nn {
class BatchNorm2d;
class Linear;
}  // namespace hotspot::nn

namespace hotspot::core {

class BinaryConv2d;
class BrnnModel;

using tensor::Tensor;

// Trace span of one stage of a conv step, qualified by the conv's span
// label so the roofline attributes every stage to its layer:
// "brnn.conv.stem/binary_conv.pack". The stages are binary_conv.pack (the
// input stage) and binary_conv.direct.<kernel> (the aggregate). An
// unlabelled conv opens the bare stage names.
std::string conv_stage_span(const std::string& conv_label,
                            const std::string& stage);

// Inference-mode batch norm, copied out of a BatchNorm2d. run() evaluates
// exactly the layer's eval forward (bitops::bn_eval per element).
struct BnStep {
  explicit BnStep(nn::BatchNorm2d& bn);

  Tensor run(const Tensor& input) const;
  bitops::ChannelAffine affine() const {
    return {mean.data(), inv_std.data(), gamma.data(), beta.data()};
  }

  std::vector<float> mean;
  std::vector<float> inv_std;
  std::vector<float> gamma;
  std::vector<float> beta;
};

// One BN -> Binarize -> BinaryConv block, compiled for the XNOR kernel
// active at construction: the bits and alpha_T of the BN output.
class ConvStep {
 public:
  ConvStep(nn::BatchNorm2d& bn, BinaryConv2d& conv);

  // Channel-major float in, [Cin, N, H, W], channel-major float out,
  // [Cout, N, outH, outW].
  Tensor run(const Tensor& input) const;

 private:
  Tensor compute(const Tensor& input) const;

  std::string label_;
  tensor::ConvSpec spec_;
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  bitops::InputScaling scaling_;
  const bitops::XnorKernel* kernel_;
  std::string input_span_;      // conv_stage_span(label, binary_conv.pack)
  std::string aggregate_span_;  // ... binary_conv.direct.<kernel>
  DirectFilters filters_;
  Tensor alpha_w_;
  BnStep bn_;
};

struct MaxPoolStep {
  tensor::PoolSpec spec;
  Tensor run(const Tensor& input) const;
};

struct ResidualStep {
  Tensor run(const Tensor& input) const;

  ConvStep a;
  ConvStep b;
  std::optional<ConvStep> shortcut;  // empty: identity connection
};

struct GlobalAvgPoolStep {
  Tensor run(const Tensor& input) const;
};

struct LinearStep {
  explicit LinearStep(nn::Linear& fc);
  Tensor run(const Tensor& input) const;

  Tensor weight_t;  // [in, out]
  Tensor bias;      // [out] or empty
};

class InferencePlan {
 public:
  // Lowers `model` (read only; no module is retained) into a fresh
  // immutable plan for the XNOR kernel active now.
  static std::shared_ptr<const InferencePlan> compile(BrnnModel& model);

  // One inference forward: logits [N, 2] for [N, C, ls, ls] images. Opens
  // the model chain's span labels (brnn.layer.*, brnn.conv.*,
  // binary_conv.*) while tracing is enabled. Reentrant.
  Tensor run(const Tensor& input) const;

  const bitops::XnorKernel& kernel() const { return *kernel_; }
  // BrnnModel::state_version() at compile time.
  std::uint64_t state_version() const { return state_version_; }

 private:
  using Step = std::variant<ConvStep, MaxPoolStep, ResidualStep, BnStep,
                            GlobalAvgPoolStep, LinearStep>;
  struct Layer {
    std::string label;  // "brnn.layer.stem", ...
    Step step;
  };

  InferencePlan() = default;

  std::vector<Layer> layers_;
  // The first layer that reads NCHW (the head BN); the layers before it
  // run channel-major.
  std::size_t head_ = 0;
  std::int64_t input_channels_ = 0;
  std::int64_t image_size_ = 0;
  const bitops::XnorKernel* kernel_ = nullptr;
  std::uint64_t state_version_ = 0;
};

}  // namespace hotspot::core
