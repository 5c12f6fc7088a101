// The compiled inference plan's contract (DESIGN.md §14): its conv input
// stage evaluates each BN inline, and the logits are bit-identical — exact
// equality of the float bit patterns, not allclose — to the same network run
// with every BN output materialized by the layer itself, and across every
// XNOR kernel this machine can run, for every scaling mode and both network
// configs. Backend::kPacked forwards run the plan. The primitive identities
// under the input stage are pinned in bn_affine_identity_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bitops/kernels/xnor_kernel.h"
#include "core/brnn.h"
#include "core/inference_plan.h"
#include "core/roofline.h"
#include "nn/batchnorm_layer.h"
#include "nn/residual.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"

namespace hotspot::core {
namespace {

using tensor::Tensor;

// Restores the dispatched kernel when a sweep ends.
class KernelGuard {
 public:
  KernelGuard() : saved_(&bitops::active_xnor_kernel()) {}
  ~KernelGuard() { bitops::set_active_xnor_kernel(*saved_); }

 private:
  const bitops::XnorKernel* saved_;
};

std::vector<const bitops::XnorKernel*> runnable_kernels() {
  std::vector<const bitops::XnorKernel*> out;
  for (const bitops::XnorKernel* kernel : bitops::compiled_xnor_kernels()) {
    if (bitops::xnor_kernel_cpu_supported(*kernel)) {
      out.push_back(kernel);
    }
  }
  return out;
}

// Seeded weights with batch-norm statistics from three training forwards
// and random BN affines (negative gammas included, so the BN expression is
// never the identity), left in eval mode on the default kPacked backend.
std::unique_ptr<BrnnModel> make_model(const BrnnConfig& config,
                                      unsigned seed) {
  util::Rng rng(seed);
  auto model = std::make_unique<BrnnModel>(config, rng);
  model->set_training(true);
  for (int i = 0; i < 3; ++i) {
    model->forward(Tensor::uniform(
        {6, config.input_channels, config.image_size, config.image_size}, rng,
        0.0f, 1.0f));
  }
  model->set_training(false);
  for (nn::Parameter* param : model->parameters()) {
    if (param->name == "gamma" || param->name == "beta") {
      for (std::int64_t i = 0; i < param->value.numel(); ++i) {
        param->value[i] = static_cast<float>(rng.uniform(-1.5, 1.5));
      }
      param->bump_version();
    }
  }
  return model;
}

Tensor images_for(const BrnnConfig& config, std::int64_t n, unsigned seed) {
  util::Rng rng(seed);
  return Tensor::uniform(
      {n, config.input_channels, config.image_size, config.image_size}, rng,
      0.0f, 1.0f);
}

// The plan's forward with every BN output materialized by BatchNorm2d's
// own eval forward and the packed conv run on its sign: the reference the
// inline input stage must match bit for bit.
Tensor materialized_logits(BrnnModel& model, const Tensor& x) {
  auto conv_block = [](nn::Module& module, const Tensor& input) {
    auto& block = dynamic_cast<nn::Sequential&>(module);
    auto& bn = dynamic_cast<nn::BatchNorm2d&>(block.at(0));
    return ConvStep(dynamic_cast<BinaryConv2d&>(block.at(1)))
        .run(bn.forward(input));
  };
  Tensor current = x;
  for (std::size_t i = 0; i < model.net().size(); ++i) {
    nn::Module& layer = model.net().at(i);
    if (dynamic_cast<nn::Sequential*>(&layer) != nullptr) {
      current = conv_block(layer, current);
    } else if (auto* residual = dynamic_cast<nn::ResidualBlock*>(&layer)) {
      auto& main_path = dynamic_cast<nn::Sequential&>(residual->main_path());
      const Tensor main_out =
          conv_block(main_path.at(1), conv_block(main_path.at(0), current));
      current = tensor::add(main_out, residual->shortcut() != nullptr
                                          ? conv_block(*residual->shortcut(),
                                                       current)
                                          : current);
    } else if (auto* fc = dynamic_cast<nn::Linear*>(&layer)) {
      current = LinearStep(*fc).run(current);
    } else {
      current = layer.forward(current);  // max pool, head BN, GAP (eval)
    }
  }
  return current;
}

// Compares float bit patterns, so NaN logits (a poisoned BN) compare too.
void expect_bit_identical(const Tensor& got, const Tensor& want,
                          const std::string& context) {
  ASSERT_EQ(got.shape(), want.shape()) << context;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::memcmp(got.data() + i, want.data() + i, sizeof(float)), 0)
        << context << " diverges at flat index " << i << ": " << got[i]
        << " vs " << want[i];
  }
}

// The paper's 12-layer topology at a CI-friendly resolution.
BrnnConfig paper_small() {
  BrnnConfig config = BrnnConfig::paper();
  config.image_size = 32;
  return config;
}

std::string scaling_name(bitops::InputScaling scaling) {
  switch (scaling) {
    case bitops::InputScaling::kPerChannel:
      return "PerChannel";
    case bitops::InputScaling::kScalar:
      return "Scalar";
    case bitops::InputScaling::kNone:
      return "None";
  }
  return "Unknown";
}

class FusionIdentityTest
    : public ::testing::TestWithParam<bitops::InputScaling> {};

TEST_P(FusionIdentityTest, FusedLogitsBitIdenticalAcrossKernels) {
  KernelGuard guard;
  for (BrnnConfig config : {BrnnConfig::compact(32), paper_small()}) {
    config.scaling = GetParam();
    std::unique_ptr<BrnnModel> model = make_model(config, 11);
    const Tensor x = images_for(config, 5, 99);
    Tensor first_kernel;
    for (const bitops::XnorKernel* kernel : runnable_kernels()) {
      bitops::set_active_xnor_kernel(*kernel);
      const std::string context =
          std::string("kernel=") + kernel->name + " scaling=" +
          bitops::to_string(config.scaling) + " blocks=" +
          std::to_string(config.block_filters.size());
      const Tensor logits = model->forward(x);
      expect_bit_identical(logits, materialized_logits(*model, x), context);
      if (first_kernel.numel() == 0) {
        first_kernel = logits;
      }
      expect_bit_identical(logits, first_kernel, "across kernels, " + context);
      // Re-running the published plan must not drift.
      expect_bit_identical(model->forward(x), logits, "second run, " + context);
    }
  }
}

TEST_P(FusionIdentityTest, NonFiniteBnMatchesMaterialized) {
  BrnnConfig config = BrnnConfig::compact(32);
  config.scaling = GetParam();
  std::unique_ptr<BrnnModel> model = make_model(config, 5);
  auto& block = dynamic_cast<nn::ResidualBlock&>(model->net().at(2));
  auto& main_path = dynamic_cast<nn::Sequential&>(block.main_path());
  auto& conv_block = dynamic_cast<nn::Sequential&>(main_path.at(0));
  auto& bn = dynamic_cast<nn::BatchNorm2d&>(conv_block.at(0));
  const Tensor x = images_for(config, 4, 17);

  // A zero and a negative running variance in block2a's BN, then also an
  // infinite gamma: the input stage evaluates the layer's own expression,
  // so the plan stays exact with no fallback path. The logits stay finite
  // until the infinite gamma, whose alpha_T poisons them with NaN in the
  // scaled modes exactly as the materialized BN does.
  bn.mutable_running_var()[2] = 0.0f;
  bn.mutable_running_var()[3] = -0.5f;
  bn.gamma().bump_version();  // statistics carry no version of their own
  const Tensor logits = model->forward(x);
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(logits[i])) << i;
  }
  expect_bit_identical(logits, materialized_logits(*model, x),
                       "zero and negative variance");

  bn.gamma().value[1] = std::numeric_limits<float>::infinity();
  bn.gamma().bump_version();
  expect_bit_identical(model->forward(x), materialized_logits(*model, x),
                       "infinite gamma");
}

TEST_P(FusionIdentityTest, PackedBackendRunsPublishedPlan) {
  BrnnConfig config = BrnnConfig::compact(32);
  config.scaling = GetParam();
  std::unique_ptr<BrnnModel> model = make_model(config, 23);
  const Tensor x = images_for(config, 3, 3);

  const Tensor packed = model->forward(x);
  const std::shared_ptr<const InferencePlan> plan = model->published_plan();
  ASSERT_NE(plan, nullptr);
  expect_bit_identical(plan->run(x), packed, "published plan");

  // kFloatSim runs the module chain: equal up to float rounding only.
  model->set_backend(Backend::kFloatSim);
  const Tensor float_sim = model->forward(x);
  EXPECT_LT(tensor::max_abs_diff(float_sim, packed), 1e-2);
  model->set_backend(Backend::kPacked);
  expect_bit_identical(model->forward(x), packed, "back on kPacked");
  EXPECT_EQ(model->published_plan(), plan) << "switching back recompiled";
}

INSTANTIATE_TEST_SUITE_P(AllScalings, FusionIdentityTest,
                         ::testing::Values(bitops::InputScaling::kPerChannel,
                                           bitops::InputScaling::kScalar,
                                           bitops::InputScaling::kNone),
                         [](const auto& param_info) {
                           return scaling_name(param_info.param);
                         });

TEST(FusionIdentity, PaperConfigBitIdentical) {
  const BrnnConfig config = BrnnConfig::paper();
  std::unique_ptr<BrnnModel> model = make_model(config, 41);
  const Tensor x = images_for(config, 2, 8);
  expect_bit_identical(model->forward(x), materialized_logits(*model, x),
                       "paper config");
}

TEST(FusionPasses, PipelineIsIdempotent) {
  BrnnConfig config = BrnnConfig::compact(32);
  config.scaling = bitops::InputScaling::kNone;
  std::unique_ptr<BrnnModel> model = make_model(config, 31);
  const Tensor x = images_for(config, 3, 7);

  // Compiling is a pure function of the model state and kernel.
  expect_bit_identical(InferencePlan::compile(*model)->run(x),
                       InferencePlan::compile(*model)->run(x), "recompile");
  // And change-detecting: an unchanged model keeps its published plan.
  const std::shared_ptr<const InferencePlan> first = model->plan();
  EXPECT_EQ(model->plan(), first);
  model->forward(x);
  EXPECT_EQ(model->published_plan(), first);
}

TEST(GraphRoofline, OneRowPerFusedConvPlusHead) {
  const BrnnConfig config = BrnnConfig::compact(32);
  std::unique_ptr<BrnnModel> model = make_model(config, 19);

  const bool was_tracing = obs::trace_enabled();
  obs::set_trace_enabled(true);
  obs::reset_spans();
  model->reset_profile();
  model->forward(images_for(config, 4, 43));
  const RooflineReport report =
      build_roofline(*model, obs::collect_span_report());
  obs::set_trace_enabled(was_tracing);

  // 9 conv rows + 1 fc row, each timed by the plan's spans over the same
  // samples.
  ASSERT_EQ(report.layers.size(), 10u);
  EXPECT_EQ(report.samples, 4u);
  int shortcut_rows = 0;
  for (const RooflineLayer& layer : report.layers) {
    EXPECT_EQ(layer.samples, 4u) << layer.label;
    EXPECT_GT(layer.seconds, 0.0) << layer.label;
    if (layer.label != "brnn.layer.head_fc") {
      EXPECT_GT(layer.bitops, 0.0) << layer.label;
    }
    shortcut_rows += !layer.main_path;
  }
  EXPECT_EQ(shortcut_rows, 2);  // the two projection shortcuts
  EXPECT_FALSE(to_table(report).empty());
}

}  // namespace
}  // namespace hotspot::core
