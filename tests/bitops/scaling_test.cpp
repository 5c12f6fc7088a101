#include "bitops/scaling.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "support/eq15_reference.h"
#include "support/test_support.h"
#include "tensor/tensor_ops.h"

namespace hotspot::bitops {
namespace {

using tensor::ConvSpec;
using tensor::Tensor;

TEST(WeightScales, L1OverN) {
  // Eq. 8: alpha_W = ||W||_1 / n per filter.
  Tensor w({2, 1, 2, 2}, {1.0f, -1.0f, 2.0f, -2.0f,  // filter 0: |sum| = 6
                          0.5f, 0.5f, 0.5f, 0.5f});  // filter 1: 2
  const Tensor scales = weight_scales(w);
  EXPECT_FLOAT_EQ(scales[0], 1.5f);
  EXPECT_FLOAT_EQ(scales[1], 0.5f);
}

TEST(WeightScales, EstimateMinimizesBinarizationLoss) {
  // Property (Eq. 5-9): alpha* = ||W||_1/n minimizes ||W - alpha sign(W)||^2
  // over alpha, so any perturbed alpha must do no better.
  util::Rng rng(1);
  const Tensor w = Tensor::normal({1, 2, 3, 3}, rng, 0.0f, 1.0f);
  const Tensor s = tensor::sign(w);
  const float alpha = weight_scales(w)[0];
  auto loss = [&](float a) {
    double total = 0.0;
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      const double d = static_cast<double>(w[i]) - a * s[i];
      total += d * d;
    }
    return total;
  };
  EXPECT_LE(loss(alpha), loss(alpha * 1.05) + 1e-9);
  EXPECT_LE(loss(alpha), loss(alpha * 0.95) + 1e-9);
  EXPECT_LE(loss(alpha), loss(alpha + 0.1) + 1e-9);
}

TEST(InputScalesPerChannel, MatchesReferenceBoxConv) {
  // The box routine must equal Eq. 14 spelled out in plain loops (the
  // Eq. 15 reference's alpha_T) bit for bit.
  util::Rng rng(2);
  for (const ConvSpec spec : {ConvSpec{3, 3, 1, 1}, ConvSpec{3, 3, 2, 1},
                              ConvSpec{1, 1, 1, 0}, ConvSpec{1, 1, 2, 0},
                              ConvSpec{5, 5, 1, 2}}) {
    const Tensor x = Tensor::normal({2, 3, 8, 8}, rng, 0.0f, 1.0f);
    test_support::expect_bit_identical(
        input_scales_per_channel(x, spec), eq15::alpha_t_per_channel(x, spec),
        "kernel " + std::to_string(spec.kernel_h) + " stride " +
            std::to_string(spec.stride));
  }
}

TEST(InputScalesPerChannel, ShapeFollowsConvOutput) {
  util::Rng rng(3);
  const Tensor x = Tensor::normal({1, 4, 16, 16}, rng, 0.0f, 1.0f);
  const Tensor scales = input_scales_per_channel(x, ConvSpec{3, 3, 2, 1});
  EXPECT_EQ(scales.shape(), (tensor::Shape{1, 4, 8, 8}));
}

TEST(InputScalesScalar, AveragesOverChannels) {
  // Two channels with |values| 1 and 3 everywhere: channel mean 2, box
  // filter of a constant interior stays 2.
  Tensor x({1, 2, 5, 5});
  for (std::int64_t i = 0; i < 25; ++i) {
    x[i] = -1.0f;
    x[25 + i] = 3.0f;
  }
  const Tensor scales = input_scales_scalar(x, ConvSpec{3, 3, 1, 1});
  EXPECT_EQ(scales.shape(), (tensor::Shape{1, 1, 5, 5}));
  EXPECT_NEAR(scales.at4(0, 0, 2, 2), 2.0f, 1e-5);
  // Corners see zero padding: 4 of 9 taps inside.
  EXPECT_NEAR(scales.at4(0, 0, 0, 0), 2.0f * 4.0f / 9.0f, 1e-5);
}

TEST(InputScales, NonNegative) {
  util::Rng rng(4);
  const Tensor x = Tensor::normal({1, 2, 6, 6}, rng, -5.0f, 2.0f);
  const Tensor scales = input_scales_per_channel(x, ConvSpec{3, 3, 1, 1});
  EXPECT_GE(scales.min(), 0.0f);
}

TEST(ScalingMode, Names) {
  EXPECT_STREQ(to_string(InputScaling::kPerChannel), "per-channel");
  EXPECT_STREQ(to_string(InputScaling::kScalar), "scalar");
}

}  // namespace
}  // namespace hotspot::bitops
