#include "core/brnn.h"

#include <sstream>

#include "nn/pool_layers.h"
#include "nn/residual.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"

namespace hotspot::core {

BrnnConfig BrnnConfig::paper() { return BrnnConfig{}; }

BrnnConfig BrnnConfig::compact(std::int64_t image_size) {
  BrnnConfig config;
  config.image_size = image_size;
  config.stem_filters = 8;
  config.stem_stride = 1;
  config.stem_pool = image_size >= 64;
  config.block_filters = {8, 16, 32};
  config.block_strides = {1, 2, 2};
  return config;
}

BrnnModel::BrnnModel(const BrnnConfig& config, util::Rng& rng)
    : config_(config) {
  HOTSPOT_CHECK_EQ(config.block_filters.size(), config.block_strides.size());
  HOTSPOT_CHECK(!config.block_filters.empty());

  // Stem.
  net_.add(conv_block(1, config.stem_filters, 3, config.stem_stride, 1,
                      "brnn.conv.stem", rng));
  layer_labels_.push_back("brnn.layer.stem");
  if (config.stem_pool) {
    net_.emplace<nn::MaxPool2d>(2);
    layer_labels_.push_back("brnn.layer.stem_pool");
  }

  // Residual stages.
  std::int64_t channels = config.stem_filters;
  for (std::size_t stage = 0; stage < config.block_filters.size(); ++stage) {
    const std::int64_t filters = config.block_filters[stage];
    const std::int64_t stride = config.block_strides[stage];
    const std::string stage_label =
        "brnn.conv.block" + std::to_string(stage + 1);
    auto main_path = std::make_unique<nn::Sequential>();
    main_path->add(
        conv_block(channels, filters, 3, stride, 1, stage_label + "a", rng));
    main_path->add(
        conv_block(filters, filters, 3, 1, 1, stage_label + "b", rng));
    nn::ModulePtr shortcut;
    if (channels != filters || stride != 1) {
      // 1x1 binary conv block aligns the shortcut tensor shape (Fig. 2).
      shortcut = conv_block(channels, filters, 1, stride, 0,
                            stage_label + "sc", rng);
    }
    net_.add(std::make_unique<nn::ResidualBlock>(std::move(main_path),
                                                 std::move(shortcut)));
    layer_labels_.push_back("brnn.layer.block" + std::to_string(stage + 1));
    channels = filters;
  }

  // Head: calibrate, pool, classify.
  net_.emplace<nn::BatchNorm2d>(channels);
  layer_labels_.push_back("brnn.layer.head_bn");
  net_.emplace<nn::GlobalAvgPool>();
  layer_labels_.push_back("brnn.layer.head_pool");
  net_.add(std::make_unique<nn::Linear>(channels, 2, rng));
  layer_labels_.push_back("brnn.layer.head_fc");
  HOTSPOT_CHECK_EQ(layer_labels_.size(), net_.size());
  parameters_ = net_.parameters();
}

nn::ModulePtr BrnnModel::conv_block(std::int64_t in, std::int64_t out,
                                    std::int64_t kernel, std::int64_t stride,
                                    std::int64_t pad, const std::string& label,
                                    util::Rng& rng) {
  auto block = std::make_unique<nn::Sequential>();
  block->emplace<nn::BatchNorm2d>(in);
  auto conv = std::make_unique<BinaryConv2d>(in, out, kernel, stride, pad,
                                             config_.scaling, rng);
  conv->set_span_label(label);
  binary_convs_.push_back(conv.get());
  block->add(std::move(conv));
  return block;
}

tensor::Tensor BrnnModel::forward(const Tensor& input) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  HOTSPOT_CHECK_EQ(input.dim(1), 1);
  HOTSPOT_CHECK_EQ(input.dim(2), config_.image_size);
  HOTSPOT_CHECK_EQ(input.dim(3), config_.image_size);
  // Unrolled net_.forward() with one trace span per top-level layer;
  // backward still runs through net_.backward(), which is equivalent
  // because each module caches its own forward state.
  HOTSPOT_TRACE_SPAN("brnn.forward");
  if (obs::trace_enabled()) {
    profile_samples_.fetch_add(static_cast<std::uint64_t>(input.dim(0)),
                               std::memory_order_relaxed);
  }
  if (!training_ && backend_ == Backend::kPacked) {
    return plan()->run(input);
  }
  if (training_) {
    ++statistics_updates_;  // batch norm moves its running statistics
  }
  Tensor current = input;
  for (std::size_t i = 0; i < net_.size(); ++i) {
    obs::TraceSpan span(layer_labels_[i]);
    current = net_.at(i).forward(current);
  }
  return current;
}

tensor::Tensor BrnnModel::backward(const Tensor& grad_output) {
  return net_.backward(grad_output);
}

std::vector<nn::Parameter*> BrnnModel::parameters() {
  return net_.parameters();
}

std::string BrnnModel::name() const {
  std::ostringstream out;
  out << "BRNN-" << config_.main_path_layer_count() << "("
      << bitops::to_string(config_.scaling) << ")";
  return out.str();
}

void BrnnModel::set_training(bool training) {
  nn::Module::set_training(training);
  net_.set_training(training);
}

void BrnnModel::collect_state(const std::string& prefix,
                              std::vector<nn::NamedTensor>& out) {
  net_.collect_state(prefix + "net.", out);
}

std::uint64_t BrnnModel::state_version() const {
  // Versions only grow, so the sum moves whenever any one of them does.
  std::uint64_t version = statistics_updates_;
  for (const nn::Parameter* param : parameters_) {
    version += param->version;
  }
  return version;
}

std::shared_ptr<const InferencePlan> BrnnModel::published_plan() const {
  const std::lock_guard<std::mutex> lock(plan_mutex_);
  return plan_;
}

std::shared_ptr<const InferencePlan> BrnnModel::plan() {
  std::shared_ptr<const InferencePlan> current = published_plan();
  if (current == nullptr || current->state_version() != state_version() ||
      &current->kernel() != &bitops::active_xnor_kernel()) {
    current = InferencePlan::compile(*this);
    const std::lock_guard<std::mutex> lock(plan_mutex_);
    plan_ = current;
  }
  return current;
}

std::vector<int> BrnnModel::predict(const Tensor& images) {
  const Tensor logits = forward(images);
  const auto argmax = tensor::argmax_rows(logits);
  std::vector<int> labels(argmax.size());
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    labels[i] = static_cast<int>(argmax[i]);
  }
  return labels;
}

}  // namespace hotspot::core
