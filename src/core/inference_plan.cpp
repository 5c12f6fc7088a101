#include "core/inference_plan.h"

#include <algorithm>
#include <new>

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
#include "util/parallel.h"

namespace hotspot::core {
namespace {

// Slots and scratch regions start on cache lines.
std::int64_t aligned(std::int64_t bytes) { return (bytes + 63) / 64 * 64; }

std::int64_t float_bytes(const ActShape& shape) {
  return aligned(shape.numel() * static_cast<std::int64_t>(sizeof(float)));
}

// Full-resolution conv output per tile of a pooling conv step: about one
// sample of the paper stem, so the tile stays in L2 between the conv that
// writes it and the pool that reads it.
constexpr std::int64_t kPoolTileBytes = 256 * 1024;

// Grow-only storage that one thread reuses from call to call; never
// zero-filled.
class ThreadBuffer {
 public:
  std::byte* reserve(std::int64_t bytes) {
    if (bytes > capacity_) {
      // Release first, so growing never holds both buffers.
      data_.reset();
      capacity_ = 0;
      data_.reset(static_cast<std::byte*>(::operator new(
          static_cast<std::size_t>(bytes), std::align_val_t{64})));
      capacity_ = bytes;
    }
    return data_.get();
  }
  std::int64_t capacity() const { return capacity_; }

 private:
  struct Free {
    void operator()(std::byte* p) const {
      ::operator delete(p, std::align_val_t{64});
    }
  };
  std::unique_ptr<std::byte, Free> data_;
  std::int64_t capacity_ = 0;
};

// The slots of InferencePlan::run on the thread that calls it.
thread_local ThreadBuffer t_arena;
// One tile of a pooling ConvStep, on each thread that runs one.
thread_local ThreadBuffer t_tile;

// The BN and conv of one conv block (BatchNorm2d + BinaryConv2d).
ConvStep compile_conv_block(nn::Module& module,
                            std::optional<tensor::PoolSpec> pool = {}) {
  auto* block = dynamic_cast<nn::Sequential*>(&module);
  HOTSPOT_CHECK(block != nullptr && block->size() == 2u)
      << "conv blocks are BatchNorm2d + BinaryConv2d";
  auto* bn = dynamic_cast<nn::BatchNorm2d*>(&block->at(0));
  auto* conv = dynamic_cast<BinaryConv2d*>(&block->at(1));
  HOTSPOT_CHECK(bn != nullptr && conv != nullptr)
      << "unexpected conv block layout";
  return ConvStep(*bn, *conv, pool);
}

ResidualStep compile_residual(nn::Module& module) {
  auto* residual = dynamic_cast<nn::ResidualBlock*>(&module);
  HOTSPOT_CHECK(residual != nullptr)
      << "residual blocks follow the stem; got " << module.name();
  auto* main_path = dynamic_cast<nn::Sequential*>(&residual->main_path());
  HOTSPOT_CHECK(main_path != nullptr && main_path->size() == 2u)
      << "residual main path layout";
  ResidualStep step{compile_conv_block(main_path->at(0)),
                    compile_conv_block(main_path->at(1)), std::nullopt};
  if (residual->shortcut() != nullptr) {
    step.shortcut = compile_conv_block(*residual->shortcut());
  }
  return step;
}

// The stem's max pool, folded into the stem step.
std::optional<tensor::PoolSpec> stem_pool(nn::Sequential& net) {
  auto* pool =
      net.size() > 1 ? dynamic_cast<nn::MaxPool2d*>(&net.at(1)) : nullptr;
  return pool != nullptr ? std::optional(pool->spec()) : std::nullopt;
}

template <typename Layer>
Layer& layer_as(nn::Sequential& net, std::size_t i) {
  auto* layer = dynamic_cast<Layer*>(&net.at(i));
  HOTSPOT_CHECK(layer != nullptr)
      << "unsupported layer " << i << ": " << net.at(i).name();
  return *layer;
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

Tensor BnStep::global_avg_pool(const float* input,
                               const ActShape& shape) const {
  HOTSPOT_CHECK_EQ(shape.channels, static_cast<std::int64_t>(mean.size()));
  const std::int64_t hw = shape.height * shape.width;
  HOTSPOT_CHECK_GT(hw, 0);
  Tensor output({shape.batch, shape.channels});
  for (std::int64_t c = 0; c < shape.channels; ++c) {
    const auto ch = static_cast<std::size_t>(c);
    for (std::int64_t n = 0; n < shape.batch; ++n) {
      const float* plane = input + (c * shape.batch + n) * hw;
      double acc = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) {
        acc += static_cast<double>(bitops::bn_eval(
            plane[i], mean[ch], inv_std[ch], gamma[ch], beta[ch]));
      }
      output.at2(n, c) = static_cast<float>(acc / static_cast<double>(hw));
    }
  }
  return output;
}

// --- ConvStep ----------------------------------------------------------

std::string conv_stage_span(const std::string& conv_label,
                            const std::string& stage) {
  return conv_label.empty() ? stage : conv_label + "/" + stage;
}

ConvStep::ConvStep(nn::BatchNorm2d& bn, BinaryConv2d& conv,
                   std::optional<tensor::PoolSpec> pool)
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
      bn_(bn),
      pool_(pool) {
  HOTSPOT_CHECK_EQ(bn.channels(), in_channels_);
}

ActShape ConvStep::output_shape(const ActShape& input) const {
  ActShape out{out_channels_, input.batch,
               tensor::conv_out_extent(input.height, spec_.kernel_h,
                                       spec_.stride, spec_.pad),
               tensor::conv_out_extent(input.width, spec_.kernel_w,
                                       spec_.stride, spec_.pad)};
  if (pool_) {
    out.height = tensor::pool_out_extent(out.height, *pool_);
    out.width = tensor::pool_out_extent(out.width, *pool_);
  }
  return out;
}

// The sign streams, then alpha_T in ConvInput::alpha's layout.
std::int64_t ConvStep::scratch_bytes(const ActShape& input) const {
  const std::int64_t streams = bitops::SignStreams::storage_words(
      in_channels_, input.batch, input.height, input.width, spec_);
  const std::int64_t lanes =
      input.batch *
      tensor::conv_out_extent(input.height, spec_.kernel_h, spec_.stride,
                              spec_.pad) *
      tensor::conv_out_extent(input.width, spec_.kernel_w, spec_.stride,
                              spec_.pad);
  const std::int64_t alpha = scaling_ == bitops::InputScaling::kPerChannel
                                 ? in_channels_ * ((lanes + 63) / 64 * 64)
                                 : lanes;
  return aligned(streams * static_cast<std::int64_t>(sizeof(std::uint64_t))) +
         aligned(alpha * static_cast<std::int64_t>(sizeof(float)));
}

Tensor ConvStep::run(const Tensor& input) const {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  const ActShape shape{input.dim(0), input.dim(1), input.dim(2),
                       input.dim(3)};
  const ActShape out = output_shape(shape);
  Tensor output({out.channels, out.batch, out.height, out.width});
  std::vector<std::uint64_t> scratch(
      static_cast<std::size_t>(scratch_bytes(shape) / 8));
  run(input.data(), shape, reinterpret_cast<std::byte*>(scratch.data()),
      output.data());
  return output;
}

void ConvStep::run(const float* input, const ActShape& shape,
                   std::byte* scratch, float* output) const {
  HOTSPOT_CHECK_EQ(shape.channels, in_channels_);
  // Same span label the module chain opens, so the roofline join and
  // timelines keep working per conv.
  if (label_.empty()) {
    compute(input, shape, scratch, output);
    return;
  }
  obs::TraceSpan span(label_);
  compute(input, shape, scratch, output);
}

void ConvStep::compute(const float* input, const ActShape& shape,
                       std::byte* scratch, float* output) const {
  const std::int64_t n = shape.batch;
  // Sign streams and the scaling's alpha_T, both of the BN output, from one
  // pass over the input.
  bitops::SignStreams bits(in_channels_, n, shape.height, shape.width, spec_,
                           reinterpret_cast<std::uint64_t*>(scratch));
  float* alpha = reinterpret_cast<float*>(
      scratch + aligned(in_channels_ * bits.channel_words() *
                        static_cast<std::int64_t>(sizeof(std::uint64_t))));
  {
    obs::TraceSpan span(input_span_);
    bitops::conv_input(input, bn_.affine(), spec_, scaling_, bits, alpha);
  }
  obs::TraceSpan span(aggregate_span_);
  const float* lanes =
      scaling_ == bitops::InputScaling::kPerChannel ? alpha : nullptr;
  const float* post =
      scaling_ == bitops::InputScaling::kScalar ? alpha : nullptr;
  if (!pool_) {
    direct_conv(*kernel_, bits, spec_, filters_, lanes, alpha_w_.data(), post,
                0, bits.words(), output, bits.lanes());
    return;
  }
  // Tiles of whole sample groups, so each starts on a lane word.
  const std::int64_t out_h = bits.out_height();
  const std::int64_t out_w = bits.out_width();
  const std::int64_t positions = out_h * out_w;
  const std::int64_t pooled = tensor::pool_out_extent(out_h, *pool_) *
                              tensor::pool_out_extent(out_w, *pool_);
  const std::int64_t group = bits.sample_group();
  const std::int64_t sample_bytes =
      out_channels_ * positions * static_cast<std::int64_t>(sizeof(float));
  const std::int64_t tile = std::min(
      std::max<std::int64_t>(1, kPoolTileBytes / (group * sample_bytes)) *
          group,
      (n + group - 1) / group * group);
  util::parallel_for(0, (n + tile - 1) / tile, 1, [&](std::int64_t lo,
                                                      std::int64_t hi) {
    auto* conv =
        reinterpret_cast<float*>(t_tile.reserve(tile * sample_bytes));
    for (std::int64_t t = lo; t < hi; ++t) {
      const std::int64_t n0 = t * tile;
      const std::int64_t count = std::min(tile, n - n0);
      direct_conv(*kernel_, bits, spec_, filters_, lanes, alpha_w_.data(),
                  post, n0 * positions / 64,
                  ((n0 + count) * positions + 63) / 64, conv,
                  count * positions);
      for (std::int64_t o = 0; o < out_channels_; ++o) {
        tensor::max_pool_planes(conv + o * count * positions, count, out_h,
                                out_w, *pool_, output + (o * n + n0) * pooled);
      }
    }
  });
}

// --- ResidualStep ------------------------------------------------------

ActShape ResidualStep::output_shape(const ActShape& input) const {
  return b.output_shape(a.output_shape(input));
}

void ResidualStep::run(float* main, const ActShape& shape, float* residual,
                       std::byte* scratch) const {
  const ActShape mid = a.output_shape(shape);
  const std::int64_t count = b.output_shape(mid).numel();
  if (shortcut.has_value()) {
    shortcut->run(main, shape, scratch, residual);
    a.run(main, shape, scratch, main);
    b.run(main, mid, scratch, main);
    for (std::int64_t i = 0; i < count; ++i) {
      main[i] = main[i] + residual[i];
    }
    return;
  }
  HOTSPOT_CHECK_EQ(count, shape.numel()) << "identity shortcut shape";
  a.run(main, shape, scratch, residual);
  b.run(residual, mid, scratch, residual);
  for (std::int64_t i = 0; i < count; ++i) {
    main[i] = residual[i] + main[i];
  }
}

// --- LinearStep --------------------------------------------------------

LinearStep::LinearStep(nn::Linear& fc)
    : weight_t(tensor::transpose2d(fc.weight().value)),
      bias(fc.bias().value) {}

Tensor LinearStep::run(const Tensor& input) const {
  HOTSPOT_CHECK_EQ(input.rank(), 2);
  Tensor output = tensor::matmul(input, weight_t);
  for (std::int64_t r = 0; r < output.dim(0); ++r) {
    for (std::int64_t c = 0; c < output.dim(1); ++c) {
      output.at2(r, c) += bias[c];
    }
  }
  return output;
}

// --- InferencePlan -----------------------------------------------------

std::shared_ptr<const InferencePlan> InferencePlan::compile(BrnnModel& model) {
  HOTSPOT_TRACE_SPAN("brnn.compile_plan");
  return std::shared_ptr<const InferencePlan>(new InferencePlan(model));
}

InferencePlan::InferencePlan(BrnnModel& model)
    : image_size_(model.config().image_size),
      kernel_(&bitops::active_xnor_kernel()),
      state_version_(model.state_version()),
      stem_label_(model.layer_labels().at(0)),
      stem_(compile_conv_block(model.net().at(0), stem_pool(model.net()))),
      head_pool_label_(model.layer_labels().at(model.net().size() - 2)),
      head_bn_(layer_as<nn::BatchNorm2d>(model.net(), model.net().size() - 3)),
      head_fc_label_(model.layer_labels().back()),
      head_fc_(layer_as<nn::Linear>(model.net(), model.net().size() - 1)) {
  nn::Sequential& net = model.net();
  HOTSPOT_CHECK_EQ(model.layer_labels().size(), net.size());
  layer_as<nn::GlobalAvgPool>(net, net.size() - 2);
  for (std::size_t i = stem_pool(net) ? 2 : 1; i + 3 < net.size(); ++i) {
    blocks_.push_back(Block{model.layer_labels()[i], compile_residual(net.at(i))});
  }
}

MemoryPlan InferencePlan::memory_plan(std::int64_t batch) const {
  MemoryPlan plan;
  // One stage's live tensors: the one in each slot (0 for none).
  const auto stage = [&plan](std::int64_t main, std::int64_t residual,
                             std::int64_t scratch) {
    plan.main_bytes = std::max(plan.main_bytes, main);
    plan.residual_bytes = std::max(plan.residual_bytes, residual);
    plan.scratch_bytes = std::max(plan.scratch_bytes, scratch);
    plan.live_bytes = std::max(plan.live_bytes, main + residual + scratch);
  };
  // Each conv as its input stage, then its aggregate. The stem reads the
  // caller's batch in place, so its input stage has no slot but scratch.
  ActShape shape{1, batch, image_size_, image_size_};
  const std::int64_t stem_scratch = stem_.scratch_bytes(shape);
  shape = stem_.output_shape(shape);
  stage(float_bytes(shape), 0, stem_scratch);
  for (const Block& block : blocks_) {
    const ResidualStep& step = block.step;
    const ActShape mid = step.a.output_shape(shape);
    const ActShape out = step.b.output_shape(mid);
    const std::int64_t x = float_bytes(shape);
    const std::int64_t a_scratch = step.a.scratch_bytes(shape);
    const std::int64_t b_scratch = step.b.scratch_bytes(mid);
    if (step.shortcut.has_value()) {
      const std::int64_t s = float_bytes(step.shortcut->output_shape(shape));
      const std::int64_t s_scratch = step.shortcut->scratch_bytes(shape);
      stage(x, 0, s_scratch);
      stage(x, s, s_scratch);
      stage(x, s, a_scratch);
      stage(float_bytes(mid), s, a_scratch);
      stage(float_bytes(mid), s, b_scratch);
      stage(float_bytes(out), s, b_scratch);
    } else {
      stage(x, 0, a_scratch);
      stage(x, float_bytes(mid), a_scratch);
      stage(x, float_bytes(mid), b_scratch);
      stage(x, float_bytes(out), b_scratch);
    }
    shape = out;
  }
  return plan;
}

std::int64_t InferencePlan::thread_arena_bytes() { return t_arena.capacity(); }

Tensor InferencePlan::run(const Tensor& input) const {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  HOTSPOT_CHECK_EQ(input.dim(1), 1);
  HOTSPOT_CHECK_EQ(input.dim(2), image_size_);
  HOTSPOT_CHECK_EQ(input.dim(3), image_size_);
  const std::int64_t n = input.dim(0);
  const MemoryPlan memory = memory_plan(n);
  std::byte* arena = t_arena.reserve(memory.arena_bytes());
  auto* main = reinterpret_cast<float*>(arena);
  auto* residual = reinterpret_cast<float*>(arena + memory.main_bytes);
  std::byte* scratch = arena + memory.main_bytes + memory.residual_bytes;

  // One channel: the NCHW batch is already channel-major.
  ActShape shape{1, n, image_size_, image_size_};
  {
    obs::TraceSpan span(stem_label_);
    stem_.run(input.data(), shape, scratch, main);
  }
  shape = stem_.output_shape(shape);
  for (const Block& block : blocks_) {
    obs::TraceSpan span(block.label);
    block.step.run(main, shape, residual, scratch);
    shape = block.step.output_shape(shape);
  }
  Tensor features;
  {
    obs::TraceSpan span(head_pool_label_);
    features = head_bn_.global_avg_pool(main, shape);
  }
  obs::TraceSpan span(head_fc_label_);
  return head_fc_.run(features);
}

}  // namespace hotspot::core
