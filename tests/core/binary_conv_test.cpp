#include "core/binary_conv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "tensor/tensor_ops.h"

namespace hotspot::core {
namespace {

using bitops::InputScaling;
using tensor::Tensor;

TEST(BinaryConv, WeightGradFollowsEq13Structure) {
  // Eq. 13: dl/dW = dl/dW~ * (1/n + alpha_W * 1_{|W|<1}). Verify the STE
  // part by comparing gradients at weights inside vs outside the clip
  // region: for |W| >= 1 the gradient collapses to the 1/n term.
  util::Rng rng(5);
  BinaryConv2d conv(1, 1, 3, 1, 1, InputScaling::kPerChannel, rng);
  conv.set_training(true);
  // Put one weight far outside [-1, 1].
  conv.weight().value[0] = 5.0f;
  conv.weight().value[1] = 0.5f;
  const Tensor x = Tensor::normal({1, 1, 4, 4}, rng, 0.0f, 0.8f);
  const Tensor out = conv.forward(x);
  conv.zero_grad();
  conv.backward(Tensor::ones(out.shape()));
  // dl/dW~ for both weights has the same *form*; the saturated weight's
  // gradient must be the unsaturated one scaled by (1/n) /
  // (1/n + alpha_W) if dl/dW~ matched. Check the structural part: the
  // saturated weight still receives a nonzero (1/n) alpha-path gradient.
  EXPECT_NE(conv.weight().grad[0], 0.0f);
}

TEST(BinaryConv, InputGradZeroWhereSaturated) {
  // Eq. 10-11: no gradient flows to inputs with |x| >= 1.
  util::Rng rng(6);
  BinaryConv2d conv(1, 2, 3, 1, 1, InputScaling::kPerChannel, rng);
  conv.set_training(true);
  Tensor x({1, 1, 3, 3}, 0.5f);
  x[4] = 3.0f;  // saturated centre
  const Tensor out = conv.forward(x);
  conv.zero_grad();
  const Tensor gx = conv.backward(Tensor::ones(out.shape()));
  EXPECT_EQ(gx[4], 0.0f);
  // At least one unsaturated input receives gradient.
  EXPECT_GT(tensor::l1_norm(gx), 0.0);
}

TEST(BinaryConv, ParameterCount) {
  util::Rng rng(8);
  BinaryConv2d conv(4, 8, 3, 1, 1, InputScaling::kPerChannel, rng);
  EXPECT_EQ(conv.parameter_count(), 8 * 4 * 3 * 3);
  EXPECT_EQ(conv.parameters().size(), 1u);  // no bias in binary conv
}

TEST(BinaryConvDeath, RejectsOversizedKernelForPackedPath) {
  // The direct conv takes at most kMaxDirectTaps taps, in every scaling
  // mode: 4x4 (16 taps) is the smallest kernel past the bound.
  util::Rng rng(9);
  EXPECT_DEATH(
      BinaryConv2d(1, 1, 9, 1, 4, InputScaling::kPerChannel, rng),
      "HOTSPOT_CHECK");
  EXPECT_DEATH(BinaryConv2d(1, 1, 4, 1, 1, InputScaling::kScalar, rng),
               "HOTSPOT_CHECK");
}

TEST(BinaryConvDeath, RejectsConvThatIsNotSame) {
  // The direct conv serves same convs only: odd kernel, pad = kernel / 2,
  // stride 1 or 2.
  util::Rng rng(10);
  EXPECT_DEATH(BinaryConv2d(1, 1, 3, 1, 0, InputScaling::kPerChannel, rng),
               "HOTSPOT_CHECK");
  EXPECT_DEATH(BinaryConv2d(1, 1, 3, 3, 1, InputScaling::kScalar, rng),
               "HOTSPOT_CHECK");
}

}  // namespace
}  // namespace hotspot::core
