#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nn/activation_layers.h"
#include "nn/batchnorm_layer.h"
#include "nn/conv_layer.h"
#include "nn/linear_layer.h"
#include "nn/pool_layers.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"

namespace hotspot::nn {
namespace {

using tensor::Tensor;

TEST(ReLULayer, ForwardClampsNegatives) {
  ReLU relu;
  const Tensor out = relu.forward(Tensor({3}, {-1.0f, 0.0f, 2.0f}));
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
}

TEST(ReLULayer, BackwardMasksByInput) {
  ReLU relu;
  relu.forward(Tensor({3}, {-1.0f, 0.5f, 2.0f}));
  const Tensor gx = relu.backward(Tensor({3}, {1.0f, 1.0f, 1.0f}));
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 1.0f);
}

TEST(FlattenLayer, RoundTripShape) {
  Flatten flatten;
  util::Rng rng(1);
  const Tensor x = Tensor::normal({2, 3, 4, 4}, rng, 0.0f, 1.0f);
  const Tensor flat = flatten.forward(x);
  EXPECT_EQ(flat.shape(), (tensor::Shape{2, 48}));
  const Tensor back = flatten.backward(flat);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(BatchNormLayer, NormalizesTrainingBatch) {
  util::Rng rng(4);
  BatchNorm2d bn(3);
  const Tensor x = Tensor::normal({4, 3, 5, 5}, rng, 3.0f, 2.0f);
  const Tensor out = bn.forward(x);
  const Tensor mean = tensor::channel_mean(out);
  const Tensor var = tensor::channel_variance(out, mean);
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(mean[c], 0.0f, 1e-4);
    EXPECT_NEAR(var[c], 1.0f, 1e-2);
  }
}

TEST(BatchNormLayer, EvalUsesRunningStatistics) {
  util::Rng rng(5);
  BatchNorm2d bn(2, /*momentum=*/0.5f);
  // Feed several training batches so the running stats adapt.
  for (int step = 0; step < 20; ++step) {
    bn.forward(Tensor::normal({8, 2, 4, 4}, rng, 10.0f, 1.0f));
  }
  bn.set_training(false);
  const Tensor out = bn.forward(Tensor({1, 2, 1, 1}, {10.0f, 10.0f}));
  // 10 is the running mean, so the normalized output is ~0.
  EXPECT_NEAR(out[0], 0.0f, 0.2f);
  EXPECT_NEAR(out[1], 0.0f, 0.2f);
}

TEST(BatchNormLayer, GammaBetaApplied) {
  BatchNorm2d bn(1);
  bn.gamma().value[0] = 3.0f;
  bn.beta().value[0] = 1.0f;
  const Tensor x({2, 1, 1, 1}, {-1.0f, 1.0f});
  const Tensor out = bn.forward(x);
  // Normalized inputs are -1 and +1; out = 3*xhat + 1.
  EXPECT_NEAR(out[0], -2.0f, 1e-2);
  EXPECT_NEAR(out[1], 4.0f, 1e-2);
}

TEST(BatchNormLayer, ZeroVarianceChannelStaysFinite) {
  BatchNorm2d bn(2);
  bn.mutable_running_mean() = Tensor({2}, {0.5f, -1.0f});
  bn.mutable_running_var() = Tensor({2}, {0.0f, 1.0f});  // dead channel 0
  bn.set_training(false);
  const Tensor out = bn.forward(Tensor({1, 2, 2, 2}, 0.5f));
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out[i])) << "index " << i;
  }
  // Channel 0 input equals the running mean: xhat is exactly 0, out = beta.
  EXPECT_EQ(out[0], bn.beta().value[0]);
}

TEST(BatchNormLayer, NegativeRunningVarianceClampsToEpsilonFloor) {
  // EMA updates and deserialized checkpoints can drift a tiny variance
  // below zero; sqrt of a negative would poison every activation with NaN.
  BatchNorm2d bn(1);
  bn.mutable_running_mean() = Tensor({1}, {0.0f});
  bn.mutable_running_var() = Tensor({1}, {-1e-6f});
  bn.set_training(false);
  const Tensor out = bn.forward(Tensor({1, 1, 1, 2}, {1.0f, -1.0f}));
  EXPECT_TRUE(std::isfinite(out[0]));
  EXPECT_TRUE(std::isfinite(out[1]));
  // Clamped to var = 0: inv_std = 1/sqrt(eps), the zero-variance factor.
  const float expected = 1.0f / std::sqrt(bn.epsilon());
  EXPECT_EQ(out[0], expected);
  EXPECT_EQ(bn.inference_inv_std()[0], expected);
}

TEST(BatchNormLayer, ZeroGammaChannelBinarizesDeterministically) {
  // gamma == 0 collapses the channel to the constant beta; the downstream
  // sign() must see a well-defined bit, not NaN.
  BatchNorm2d bn(1);
  bn.gamma().value[0] = 0.0f;
  bn.beta().value[0] = -0.25f;
  bn.set_training(false);
  const Tensor out = bn.forward(Tensor({1, 1, 1, 3}, {-7.0f, 0.0f, 512.0f}));
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i], -0.25f);
    EXPECT_FALSE(out[i] >= 0.0f);  // the sign rule's bit, deterministically 0
  }
}

TEST(BatchNormLayer, InferenceInvStdMatchesForwardFactors) {
  util::Rng rng(21);
  BatchNorm2d bn(3);
  for (int step = 0; step < 4; ++step) {
    bn.forward(Tensor::normal({4, 3, 4, 4}, rng, 1.0f, 2.0f));
  }
  bn.set_training(false);
  const Tensor inv_std = bn.inference_inv_std();
  ASSERT_EQ(inv_std.shape(), (tensor::Shape{3}));
  for (int c = 0; c < 3; ++c) {
    const float expected =
        1.0f / std::sqrt(std::max(bn.running_var()[c], 0.0f) + bn.epsilon());
    EXPECT_EQ(inv_std[c], expected);
  }
}

TEST(LinearLayer, KnownAffineMap) {
  util::Rng rng(6);
  Linear linear(2, 2, rng);
  linear.weight().value = Tensor({2, 2}, {1, 2, 3, 4});
  linear.bias().value = Tensor({2}, {10, 20});
  const Tensor out = linear.forward(Tensor({1, 2}, {1, 1}));
  EXPECT_FLOAT_EQ(out.at2(0, 0), 13.0f);
  EXPECT_FLOAT_EQ(out.at2(0, 1), 27.0f);
}

TEST(Conv2dLayer, ShapeAndParameterCount) {
  util::Rng rng(7);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  EXPECT_EQ(conv.parameter_count(), 8 * 3 * 3 * 3);  // no bias
  const Tensor out = conv.forward(Tensor({2, 3, 6, 6}));
  EXPECT_EQ(out.shape(), (tensor::Shape{2, 8, 6, 6}));
}

TEST(Sequential, ComposesForwardAndBackward) {
  util::Rng rng(8);
  Sequential net;
  net.emplace<Linear>(4, 3, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(3, 2, rng);
  EXPECT_EQ(net.size(), 3u);
  const Tensor x = Tensor::normal({5, 4}, rng, 0.0f, 1.0f);
  const Tensor out = net.forward(x);
  EXPECT_EQ(out.shape(), (tensor::Shape{5, 2}));
  const Tensor gx = net.backward(Tensor::ones(out.shape()));
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Sequential, TrainingFlagPropagates) {
  util::Rng rng(9);
  Sequential net;
  net.emplace<BatchNorm2d>(2);
  net.set_training(false);
  EXPECT_FALSE(net.at(0).training());
  net.set_training(true);
  EXPECT_TRUE(net.at(0).training());
}

TEST(Residual, IdentityShortcutAddsInput) {
  auto main_path = std::make_unique<Sequential>();  // empty = identity
  ResidualBlock block(std::move(main_path), nullptr);
  const Tensor x({1, 1, 1, 2}, {1.0f, 2.0f});
  const Tensor out = block.forward(x);
  EXPECT_FLOAT_EQ(out[0], 2.0f);  // x + x
  EXPECT_FLOAT_EQ(out[1], 4.0f);
}

TEST(Residual, BackwardSumsBothPaths) {
  auto main_path = std::make_unique<Sequential>();
  ResidualBlock block(std::move(main_path), nullptr);
  block.forward(Tensor({1, 1, 1, 1}, {1.0f}));
  const Tensor gx = block.backward(Tensor({1, 1, 1, 1}, {1.0f}));
  EXPECT_FLOAT_EQ(gx[0], 2.0f);  // gradient through main + identity
}

TEST(Residual, ProjectionShortcutChangesShape) {
  util::Rng rng(10);
  auto main_path = std::make_unique<Sequential>();
  main_path->emplace<Conv2d>(2, 4, 3, 2, 1, rng);
  auto shortcut = std::make_unique<Conv2d>(2, 4, 1, 2, 0, rng);
  ResidualBlock block(std::move(main_path), std::move(shortcut));
  EXPECT_TRUE(block.has_projection());
  const Tensor out = block.forward(Tensor({1, 2, 8, 8}));
  EXPECT_EQ(out.shape(), (tensor::Shape{1, 4, 4, 4}));
}

TEST(Module, ParameterCountAggregates) {
  util::Rng rng(11);
  Sequential net;
  net.emplace<Linear>(10, 5, rng);  // 55
  net.emplace<Linear>(5, 2, rng);   // 12
  EXPECT_EQ(net.parameter_count(), 67);
}

TEST(Module, ZeroGradClearsAccumulation) {
  util::Rng rng(12);
  Linear linear(2, 2, rng);
  linear.forward(Tensor({1, 2}, {1, 1}));
  linear.backward(Tensor({1, 2}, {1, 1}));
  EXPECT_GT(tensor::l1_norm(linear.weight().grad), 0.0);
  linear.zero_grad();
  EXPECT_EQ(tensor::l1_norm(linear.weight().grad), 0.0);
}

}  // namespace
}  // namespace hotspot::nn
