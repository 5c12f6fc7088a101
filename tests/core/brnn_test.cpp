#include "core/brnn.h"

#include <gtest/gtest.h>

#include "nn/serialize.h"
#include "support/test_support.h"
#include "tensor/tensor_ops.h"

namespace hotspot::core {
namespace {

using tensor::Tensor;

TEST(BrnnConfig, PaperNetworkHasTwelveWeightLayers) {
  const BrnnConfig config = BrnnConfig::paper();
  EXPECT_EQ(config.main_path_layer_count(), 12);
  EXPECT_EQ(config.image_size, 128);
  // "The deeper a layer is, the more filters it contains" (Sec. 3.1).
  for (std::size_t i = 1; i < config.block_filters.size(); ++i) {
    EXPECT_GE(config.block_filters[i], config.block_filters[i - 1]);
  }
}

TEST(BrnnModel, ForwardShape) {
  util::Rng rng(1);
  BrnnModel model(BrnnConfig::compact(32), rng);
  model.set_training(true);
  const Tensor logits = model.forward(Tensor({4, 1, 32, 32}));
  EXPECT_EQ(logits.shape(), (tensor::Shape{4, 2}));
}

TEST(BrnnModel, RejectsWrongInputSize) {
  util::Rng rng(2);
  BrnnModel model(BrnnConfig::compact(32), rng);
  EXPECT_DEATH(model.forward(Tensor({1, 1, 64, 64})), "HOTSPOT_CHECK");
}

// Clips are one raster channel, which the plan reads in place as its
// channel-major stem input: any other channel count is rejected.
TEST(InferencePlanDeath, RunRejectsTwoChannelBatch) {
  util::Rng rng(2);
  BrnnModel model(BrnnConfig::compact(32), rng);
  model.set_training(false);
  const Tensor two_channels({1, 2, 32, 32});
  EXPECT_DEATH(model.plan()->run(two_channels), "HOTSPOT_CHECK");
  EXPECT_DEATH(model.forward(two_channels), "HOTSPOT_CHECK");
}

TEST(BrnnModel, BackwardProducesInputShapedGradient) {
  util::Rng rng(3);
  BrnnModel model(BrnnConfig::compact(32), rng);
  model.set_training(true);
  const Tensor x = Tensor::uniform({2, 1, 32, 32}, rng, 0.0f, 1.0f);
  const Tensor logits = model.forward(x);
  const Tensor gx = model.backward(Tensor::ones(logits.shape()));
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(BrnnModel, GradientsReachEveryParameter) {
  util::Rng rng(4);
  BrnnModel model(BrnnConfig::compact(32), rng);
  model.set_training(true);
  const Tensor x = Tensor::uniform({4, 1, 32, 32}, rng, 0.0f, 1.0f);
  const Tensor logits = model.forward(x);
  model.zero_grad();
  model.backward(Tensor::ones(logits.shape()));
  int dead = 0;
  for (nn::Parameter* param : model.parameters()) {
    if (tensor::l1_norm(param->grad) == 0.0) {
      ++dead;
    }
  }
  // A few BN betas can be zero-gradient on a tiny batch, but the bulk of
  // the network must receive gradient.
  EXPECT_LE(dead, 2) << "of " << model.parameters().size() << " parameters";
}

TEST(BrnnModel, BinaryConvCountMatchesArchitecture) {
  util::Rng rng(5);
  const BrnnConfig config = BrnnConfig::compact(32);
  BrnnModel model(config, rng);
  // stem + 2 per block + 1x1 shortcut per shape-changing block.
  std::int64_t expected = 1 + 2 * static_cast<std::int64_t>(
                                      config.block_filters.size());
  std::int64_t channels = config.stem_filters;
  for (std::size_t i = 0; i < config.block_filters.size(); ++i) {
    if (config.block_filters[i] != channels || config.block_strides[i] != 1) {
      ++expected;
    }
    channels = config.block_filters[i];
  }
  EXPECT_EQ(static_cast<std::int64_t>(model.binary_convs().size()), expected);
}

TEST(BrnnModel, CheckpointRoundTrip) {
  util::Rng rng_a(6);
  BrnnModel model(BrnnConfig::compact(32), rng_a);
  model.set_training(false);
  util::Rng data_rng(7);
  const Tensor x = Tensor::uniform({2, 1, 32, 32}, data_rng, 0.0f, 1.0f);
  model.set_backend(Backend::kFloatSim);
  const Tensor logits_before = model.forward(x);

  const std::string path = test_support::test_path("brnn_checkpoint.bin");
  ASSERT_TRUE(nn::save_checkpoint(path, model));

  util::Rng rng_b(999);  // different init
  BrnnModel restored(BrnnConfig::compact(32), rng_b);
  ASSERT_TRUE(nn::load_checkpoint(path, restored));
  restored.set_training(false);
  restored.set_backend(Backend::kFloatSim);
  const Tensor logits_after = restored.forward(x);
  EXPECT_TRUE(tensor::allclose(logits_before, logits_after, 1e-5));
}

TEST(BrnnModel, ArchitectureDescriptionNonEmpty) {
  util::Rng rng(8);
  BrnnModel model(BrnnConfig::compact(32), rng);
  const auto layers = model.architecture();
  EXPECT_GE(layers.size(), 5u);
  EXPECT_NE(model.name().find("BRNN"), std::string::npos);
}

TEST(BrnnModel, StemPoolHalvesResolutionAt64) {
  util::Rng rng(9);
  const BrnnConfig config = BrnnConfig::compact(64);
  EXPECT_TRUE(config.stem_pool);
  BrnnModel model(config, rng);
  model.set_training(true);
  const Tensor logits = model.forward(Tensor({1, 1, 64, 64}));
  EXPECT_EQ(logits.shape(), (tensor::Shape{1, 2}));
}

TEST(BrnnModel, PredictReturnsBinaryLabels) {
  util::Rng rng(10);
  BrnnModel model(BrnnConfig::compact(32), rng);
  model.set_training(false);
  util::Rng data_rng(11);
  const auto labels =
      model.predict(Tensor::uniform({5, 1, 32, 32}, data_rng, 0.0f, 1.0f));
  ASSERT_EQ(labels.size(), 5u);
  for (const int label : labels) {
    EXPECT_TRUE(label == 0 || label == 1);
  }
}

TEST(FusionPasses, PipelineIsIdempotent) {
  util::Rng rng(31);
  BrnnModel model(BrnnConfig::compact(32), rng);
  model.set_training(false);
  const Tensor x = Tensor::uniform({3, 1, 32, 32}, rng, 0.0f, 1.0f);

  // Compiling is a pure function of the model state and kernel.
  test_support::expect_bit_identical(InferencePlan::compile(model)->run(x),
                                     InferencePlan::compile(model)->run(x),
                                     "recompile");
  // And change-detecting: an unchanged model keeps its published plan.
  const std::shared_ptr<const InferencePlan> first = model.plan();
  EXPECT_EQ(model.plan(), first);
  model.forward(x);
  EXPECT_EQ(model.published_plan(), first);
}

}  // namespace
}  // namespace hotspot::core
