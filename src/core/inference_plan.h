// Compiled inference plan: the one deployment path of a trained BrnnModel
// (DESIGN.md §14).
//
// InferencePlan::compile walks the model's modules once and lowers them into
// fixed stage objects that own everything inference needs: the packed
// filters and alpha_W for the dispatched XNOR kernel, each conv's BN affine,
// and copies of the head's BN and fc parameters. A compiled plan is
// immutable and never calls nn::Module::forward, so any number of threads
// may run one plan at once. BrnnModel publishes a fresh plan whenever a
// parameter version, the XNOR kernel, or the BN statistics change (see
// BrnnModel::plan()).
//
// Memory is planned, not allocated per step: memory_plan(N) sizes three
// slots from the steps' output shapes (a main slot, a residual slot and
// one conv's input-stage scratch), and run() places them in an arena the
// calling thread owns and reuses from call to call. A conv's output takes
// its input's slot once the input stage has turned that input into sign
// streams and alpha_T, unless a shortcut still reads it.
//
// The conv and residual activations are channel-major, [C, N, H, W], so a
// conv's output, the next conv's alpha_T rows and its sign streams share
// the direct conv's lane order (lane = n*H*W + p). The input has one
// channel, so run() reads the NCHW batch in place, as it is already in that
// order; the head reads the channel-major activation directly.
//
// Each conv step runs two stages, in the style of lib_nn's Filter2D
// (SNIPPETS.md snippet 1):
//   input     - sign streams of the BN output and the alpha_T of the
//               layer's scaling (per-channel lanes or the scalar map),
//               both from one pass over the raw input
//               (bitops::conv_input) that evaluates the BN expression
//               (bitops/channel_affine.h) once per element, so no BN tensor
//               is materialized;
//   aggregate - the position-sliced direct binary conv (core::direct_conv),
//               the same for every scaling.
// The input stage evaluates the layer's own float expression, so the plan
// binarizes exactly what the BN layer would output, for every statistic,
// and its logits are bit-identical on every kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
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

// Shape of a channel-major activation [C, N, H, W].
struct ActShape {
  std::int64_t channels = 0;
  std::int64_t batch = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;

  std::int64_t numel() const { return channels * batch * height * width; }
};

// Inference-mode batch norm, copied out of a BatchNorm2d.
struct BnStep {
  explicit BnStep(nn::BatchNorm2d& bn);

  bitops::ChannelAffine affine() const {
    return {mean.data(), inv_std.data(), gamma.data(), beta.data()};
  }

  // The head's BN and global average pool in one pass over the
  // channel-major `input`: [N, C] features, per (n, c) the double sum of
  // bitops::bn_eval over the plane in plane order, over H*W, so bit for bit
  // tensor::global_avg_pool of the layer's eval forward of the NCHW input.
  Tensor global_avg_pool(const float* input, const ActShape& shape) const;

  std::vector<float> mean;
  std::vector<float> inv_std;
  std::vector<float> gamma;
  std::vector<float> beta;
};

// One BN -> Binarize -> BinaryConv block, compiled for the XNOR kernel
// active at construction: the bits and alpha_T of the BN output, and, with
// `pool` (the stem's), the max pool of the conv output.
class ConvStep {
 public:
  ConvStep(nn::BatchNorm2d& bn, BinaryConv2d& conv,
           std::optional<tensor::PoolSpec> pool = std::nullopt);

  // Channel-major float in, [Cin, N, H, W], channel-major float out,
  // [Cout, N, outH, outW], pooled when the step pools.
  Tensor run(const Tensor& input) const;

  // The step on caller memory, the way the plan runs it: reads `input`,
  // uses scratch_bytes(shape) bytes of `scratch` (aligned for
  // std::uint64_t) for the sign streams and alpha_T, and writes
  // output_shape(shape) floats to `output`, which may be `input`: the
  // input stage has read all of it before the aggregate writes. A pooling
  // step convolves a tile of whole samples at a time into per-thread
  // scratch and pools each tile straight into `output`, so the
  // full-resolution conv output never exists; bit for bit the conv then
  // the pool.
  void run(const float* input, const ActShape& shape, std::byte* scratch,
           float* output) const;

  ActShape output_shape(const ActShape& input) const;
  std::int64_t scratch_bytes(const ActShape& input) const;

 private:
  void compute(const float* input, const ActShape& shape, std::byte* scratch,
               float* output) const;

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
  std::optional<tensor::PoolSpec> pool_;
};

// A residual block on the plan's slots. Its input X is in the main slot,
// which holds the block's output afterwards. A projection shortcut runs
// first, into the residual slot, while X is still warm; then the main
// path a, b takes X's slot. With an identity shortcut X stays live, so a
// and b take the residual slot and the sum lands in X's. Either way the
// sum is main + shortcut, the operand order of ResidualBlock::forward.
struct ResidualStep {
  void run(float* main, const ActShape& shape, float* residual,
           std::byte* scratch) const;

  ActShape output_shape(const ActShape& input) const;

  ConvStep a;
  ConvStep b;
  std::optional<ConvStep> shortcut;  // empty: identity connection
};

struct LinearStep {
  explicit LinearStep(nn::Linear& fc);
  Tensor run(const Tensor& input) const;

  Tensor weight_t;  // [in, out]
  Tensor bias;      // [out]
};

// The memory a run at one batch size needs, laid out when the plan
// compiles from the steps' output shapes: three slots of one arena. Each
// slot is as large as the largest tensor placed in it.
struct MemoryPlan {
  std::int64_t main_bytes = 0;      // the stem output and block activations
  std::int64_t residual_bytes = 0;  // a shortcut output, or an identity
                                    // block's main path
  std::int64_t scratch_bytes = 0;   // one conv's sign streams and alpha_T
  // The most bytes the tensors live at any one stage take, each rounded up
  // to the slots' 64-byte alignment: no arena can be smaller.
  std::int64_t live_bytes = 0;

  std::int64_t arena_bytes() const {
    return main_bytes + residual_bytes + scratch_bytes;
  }
};

class InferencePlan {
 public:
  // Lowers `model` (read only; no module is retained) into a fresh
  // immutable plan for the XNOR kernel active now.
  static std::shared_ptr<const InferencePlan> compile(BrnnModel& model);

  // One inference forward: logits [N, 2] for [N, 1, ls, ls] images. Opens
  // the model chain's span labels (brnn.layer.*, brnn.conv.*,
  // binary_conv.*) while tracing is enabled. Reentrant: every activation
  // lives in the calling thread's arena (see thread_arena_bytes).
  Tensor run(const Tensor& input) const;

  MemoryPlan memory_plan(std::int64_t batch) const;

  // Bytes of the calling thread's arena: grow-only, shared by every run
  // of any plan on this thread, and released when the thread exits.
  static std::int64_t thread_arena_bytes();

  const bitops::XnorKernel& kernel() const { return *kernel_; }
  // BrnnModel::state_version() at compile time.
  std::uint64_t state_version() const { return state_version_; }

 private:
  struct Block {
    std::string label;  // "brnn.layer.block1", ...
    ResidualStep step;
  };

  explicit InferencePlan(BrnnModel& model);

  std::int64_t image_size_;
  const bitops::XnorKernel* kernel_;
  std::uint64_t state_version_;
  // The model's layers in order: the stem (with its max pool folded in),
  // the residual blocks, the head BN and global average pool in one pass,
  // and the fc.
  std::string stem_label_;
  ConvStep stem_;
  std::vector<Block> blocks_;
  std::string head_pool_label_;
  BnStep head_bn_;
  std::string head_fc_label_;
  LinearStep head_fc_;
};

}  // namespace hotspot::core
