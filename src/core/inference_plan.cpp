#include "core/inference_plan.h"

#include <algorithm>

#include "core/binary_conv.h"
#include "core/brnn.h"
#include "core/packed_conv.h"
#include "nn/batchnorm_layer.h"
#include "nn/linear_layer.h"
#include "nn/pool_layers.h"
#include "nn/residual.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace hotspot::core {
namespace {

// The BN and conv of one conv block (BatchNorm2d + BinaryConv2d).
ConvStep compile_conv_block(nn::Module& module) {
  auto* block = dynamic_cast<nn::Sequential*>(&module);
  HOTSPOT_CHECK(block != nullptr && block->size() == 2u)
      << "conv blocks are BatchNorm2d + BinaryConv2d";
  auto* bn = dynamic_cast<nn::BatchNorm2d*>(&block->at(0));
  auto* conv = dynamic_cast<BinaryConv2d*>(&block->at(1));
  HOTSPOT_CHECK(bn != nullptr && conv != nullptr)
      << "unexpected conv block layout";
  return ConvStep(*bn, *conv);
}

ResidualStep compile_residual(nn::ResidualBlock& residual) {
  auto* main_path = dynamic_cast<nn::Sequential*>(&residual.main_path());
  HOTSPOT_CHECK(main_path != nullptr && main_path->size() == 2u)
      << "residual main path layout";
  ResidualStep step{compile_conv_block(main_path->at(0)),
                    compile_conv_block(main_path->at(1)), std::nullopt};
  if (residual.shortcut() != nullptr) {
    step.shortcut = compile_conv_block(*residual.shortcut());
  }
  return step;
}

}  // namespace

// --- BnStep ------------------------------------------------------------

BnStep::BnStep(nn::BatchNorm2d& bn) {
  const std::int64_t channels = bn.channels();
  const Tensor inv = bn.inference_inv_std();
  mean.assign(bn.running_mean().data(), bn.running_mean().data() + channels);
  inv_std.assign(inv.data(), inv.data() + channels);
  gamma.assign(bn.gamma().value.data(), bn.gamma().value.data() + channels);
  beta.assign(bn.beta().value.data(), bn.beta().value.data() + channels);
}

Tensor BnStep::run(const Tensor& input) const {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  const std::int64_t channels = input.dim(1);
  HOTSPOT_CHECK_EQ(channels, static_cast<std::int64_t>(mean.size()));
  const std::int64_t hw = input.dim(2) * input.dim(3);
  Tensor output(input.shape());
  for (std::int64_t plane = 0; plane < input.dim(0) * channels; ++plane) {
    const auto c = static_cast<std::size_t>(plane % channels);
    const float* in = input.data() + plane * hw;
    float* out = output.data() + plane * hw;
    for (std::int64_t i = 0; i < hw; ++i) {
      out[i] = bitops::bn_eval(in[i], mean[c], inv_std[c], gamma[c], beta[c]);
    }
  }
  return output;
}

// --- ConvStep ----------------------------------------------------------

std::string conv_stage_span(const std::string& conv_label,
                            const std::string& stage) {
  return conv_label.empty() ? stage : conv_label + "/" + stage;
}

ConvStep::ConvStep(nn::BatchNorm2d& bn, BinaryConv2d& conv)
    : label_(conv.span_label()),
      spec_(conv.spec()),
      in_channels_(conv.in_channels()),
      out_channels_(conv.out_channels()),
      scaling_(conv.scaling()),
      kernel_(&bitops::active_xnor_kernel()),
      input_span_(conv_stage_span(label_, "binary_conv.pack")),
      aggregate_span_(conv_stage_span(
          label_, std::string("binary_conv.direct.") + kernel_->name)),
      filters_(pack_direct_filters(conv.weight().value)),
      alpha_w_(bitops::weight_scales(conv.weight().value)),
      bn_(bn) {
  HOTSPOT_CHECK_EQ(bn.channels(), in_channels_);
}

Tensor ConvStep::run(const Tensor& input) const {
  // Same span label the module chain opens, so the roofline join and
  // timelines keep working per conv.
  if (label_.empty()) {
    return compute(input);
  }
  obs::TraceSpan span(label_);
  return compute(input);
}

Tensor ConvStep::compute(const Tensor& input) const {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  HOTSPOT_CHECK_EQ(input.dim(0), in_channels_);
  Tensor output({out_channels_, input.dim(1),
                 tensor::conv_out_extent(input.dim(2), spec_.kernel_h,
                                         spec_.stride, spec_.pad),
                 tensor::conv_out_extent(input.dim(3), spec_.kernel_w,
                                         spec_.stride, spec_.pad)});
  // Sign streams and the scaling's alpha_T, both of the BN output, from one
  // pass over the input.
  bitops::ConvInput in;
  {
    obs::TraceSpan span(input_span_);
    in = bitops::conv_input(input, bn_.affine(), spec_, scaling_);
  }
  obs::TraceSpan span(aggregate_span_);
  direct_conv(*kernel_, in.bits, spec_, filters_,
              scaling_ == bitops::InputScaling::kPerChannel ? &in.alpha
                                                            : nullptr,
              alpha_w_,
              scaling_ == bitops::InputScaling::kScalar ? &in.alpha : nullptr,
              output);
  return output;
}

// --- Pure tensor steps -------------------------------------------------

Tensor MaxPoolStep::run(const Tensor& input) const {
  return tensor::max_pool2d(input, spec, nullptr);
}

Tensor ResidualStep::run(const Tensor& input) const {
  Tensor output = b.run(a.run(input));
  // main + shortcut, the operand order of ResidualBlock::forward, so the
  // float sum is identical to the module chain's; in place, into the main
  // path's own output.
  tensor::add_inplace(output,
                      shortcut.has_value() ? shortcut->run(input) : input);
  return output;
}

Tensor GlobalAvgPoolStep::run(const Tensor& input) const {
  return tensor::global_avg_pool(input);
}

LinearStep::LinearStep(nn::Linear& fc)
    : weight_t(tensor::transpose2d(fc.weight().value)),
      bias(fc.has_bias() ? fc.bias().value : Tensor()) {}

Tensor LinearStep::run(const Tensor& input) const {
  HOTSPOT_CHECK_EQ(input.rank(), 2);
  Tensor output = tensor::matmul(input, weight_t);
  if (bias.numel() > 0) {
    for (std::int64_t r = 0; r < output.dim(0); ++r) {
      for (std::int64_t c = 0; c < output.dim(1); ++c) {
        output.at2(r, c) += bias[c];
      }
    }
  }
  return output;
}

// --- InferencePlan -----------------------------------------------------

std::shared_ptr<const InferencePlan> InferencePlan::compile(BrnnModel& model) {
  HOTSPOT_TRACE_SPAN("brnn.compile_plan");
  std::shared_ptr<InferencePlan> plan(new InferencePlan());
  plan->input_channels_ = model.config().input_channels;
  plan->image_size_ = model.config().image_size;
  plan->kernel_ = &bitops::active_xnor_kernel();
  plan->state_version_ = model.state_version();

  nn::Sequential& net = model.net();
  const std::vector<std::string>& labels = model.layer_labels();
  HOTSPOT_CHECK_EQ(labels.size(), net.size());
  plan->layers_.reserve(net.size());
  plan->head_ = net.size();
  for (std::size_t i = 0; i < net.size(); ++i) {
    nn::Module& layer = net.at(i);
    auto add = [&](Step step) {
      plan->layers_.push_back(Layer{labels[i], std::move(step)});
    };
    if (dynamic_cast<nn::Sequential*>(&layer) != nullptr) {
      add(compile_conv_block(layer));
    } else if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&layer)) {
      add(MaxPoolStep{pool->spec()});
    } else if (auto* residual = dynamic_cast<nn::ResidualBlock*>(&layer)) {
      add(compile_residual(*residual));
    } else {
      plan->head_ = std::min(plan->head_, i);
      if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&layer)) {
        add(BnStep(*bn));
      } else if (dynamic_cast<nn::GlobalAvgPool*>(&layer) != nullptr) {
        add(GlobalAvgPoolStep{});
      } else if (auto* fc = dynamic_cast<nn::Linear*>(&layer)) {
        add(LinearStep(*fc));
      } else {
        HOTSPOT_CHECK(false) << "unsupported top-level layer: "
                             << layer.name();
      }
    }
  }
  return plan;
}

Tensor InferencePlan::run(const Tensor& input) const {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  HOTSPOT_CHECK_EQ(input.dim(1), input_channels_);
  HOTSPOT_CHECK_EQ(input.dim(2), image_size_);
  HOTSPOT_CHECK_EQ(input.dim(3), image_size_);
  // [N, C, H, W] -> channel-major [C, N, H, W]; with one input channel the
  // same floats in the same order.
  Tensor current = tensor::swap_leading_axes(input);
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    obs::TraceSpan span(layers_[i].label);
    if (i == head_) {
      current = tensor::swap_leading_axes(current);  // back to NCHW
    }
    current = std::visit(
        [&current](const auto& step) { return step.run(current); },
        layers_[i].step);
  }
  return current;
}

}  // namespace hotspot::core
