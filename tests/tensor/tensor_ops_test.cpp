#include "tensor/tensor_ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace hotspot::tensor {
namespace {

TEST(Elementwise, AddSubMul) {
  const Tensor a({3}, {1, 2, 3});
  const Tensor b({3}, {4, 5, 6});
  EXPECT_EQ(add(a, b)[1], 7.0f);
  EXPECT_EQ(sub(a, b)[2], -3.0f);
  EXPECT_EQ(mul(a, b)[0], 4.0f);
  EXPECT_EQ(scale(a, 2.0f)[2], 6.0f);
}

TEST(Elementwise, ShapeMismatchDies) {
  const Tensor a({3});
  const Tensor b({4});
  EXPECT_DEATH(add(a, b), "HOTSPOT_CHECK");
}

TEST(Elementwise, InplaceVariants) {
  Tensor a({2}, {1, 2});
  const Tensor b({2}, {10, 20});
  add_inplace(a, b);
  EXPECT_EQ(a[0], 11.0f);
  EXPECT_EQ(a[1], 22.0f);
  add_inplace(a, b);
  EXPECT_EQ(a[0], 21.0f);
  EXPECT_EQ(b[0], 10.0f);  // the addend is untouched
}

TEST(Elementwise, SignConvention) {
  const Tensor a({5}, {-1.5f, 0.0f, 0.5f, -0.0f,
                       std::numeric_limits<float>::quiet_NaN()});
  const Tensor s = sign(a);
  EXPECT_EQ(s[0], -1.0f);
  EXPECT_EQ(s[1], 1.0f);  // sign(0) = +1 (XNOR-Net convention)
  EXPECT_EQ(s[2], 1.0f);
  EXPECT_EQ(s[3], 1.0f);  // -0.0f >= 0 in IEEE comparison
  EXPECT_EQ(s[4], -1.0f);  // NaN >= 0 is false: bit 0, as the packed paths
}

TEST(Elementwise, AbsAndMap) {
  const Tensor a({2}, {-3.0f, 4.0f});
  EXPECT_EQ(abs(a)[0], 3.0f);
}

TEST(Norms, L1L2) {
  const Tensor a({3}, {3.0f, -4.0f, 0.0f});
  EXPECT_DOUBLE_EQ(l1_norm(a), 7.0);
  EXPECT_DOUBLE_EQ(l2_norm(a), 5.0);
}

TEST(Norms, MaxAbsDiffAndAllclose) {
  const Tensor a({2}, {1.0f, 2.0f});
  const Tensor b({2}, {1.1f, 2.0f});
  EXPECT_NEAR(max_abs_diff(a, b), 0.1, 1e-6);
  EXPECT_TRUE(allclose(a, b, 0.2));
  EXPECT_FALSE(allclose(a, b, 0.05));
}

TEST(Matmul, KnownProduct) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.at2(0, 0), 58.0f);
  EXPECT_EQ(c.at2(0, 1), 64.0f);
  EXPECT_EQ(c.at2(1, 0), 139.0f);
  EXPECT_EQ(c.at2(1, 1), 154.0f);
}

TEST(Matmul, InnerDimMismatchDies) {
  EXPECT_DEATH(matmul(Tensor({2, 3}), Tensor({2, 3})), "HOTSPOT_CHECK");
}

TEST(Matmul, IdentityRoundTrip) {
  util::Rng rng(1);
  const Tensor a = Tensor::normal({4, 4}, rng, 0.0f, 1.0f);
  Tensor eye({4, 4});
  for (int i = 0; i < 4; ++i) {
    eye.at2(i, i) = 1.0f;
  }
  EXPECT_TRUE(allclose(matmul(a, eye), a, 1e-6));
}

TEST(Transpose, Involution) {
  util::Rng rng(2);
  const Tensor a = Tensor::normal({3, 5}, rng, 0.0f, 1.0f);
  EXPECT_TRUE(allclose(transpose2d(transpose2d(a)), a, 0.0));
  EXPECT_EQ(transpose2d(a).dim(0), 5);
}

TEST(ChannelStats, MeanAndVariance) {
  // Two channels: constant 2 and alternating 0/4.
  Tensor x({1, 2, 1, 4});
  for (int i = 0; i < 4; ++i) {
    x.at4(0, 0, 0, i) = 2.0f;
    x.at4(0, 1, 0, i) = i % 2 == 0 ? 0.0f : 4.0f;
  }
  const Tensor mean = channel_mean(x);
  EXPECT_FLOAT_EQ(mean[0], 2.0f);
  EXPECT_FLOAT_EQ(mean[1], 2.0f);
  const Tensor var = channel_variance(x, mean);
  EXPECT_FLOAT_EQ(var[0], 0.0f);
  EXPECT_FLOAT_EQ(var[1], 4.0f);
}

TEST(Softmax, RowsSumToOne) {
  const Tensor logits({2, 3}, {1, 2, 3, -1, 0, 1});
  const Tensor probs = softmax_rows(logits);
  for (int r = 0; r < 2; ++r) {
    double total = 0.0;
    for (int c = 0; c < 3; ++c) {
      total += probs.at2(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
  EXPECT_GT(probs.at2(0, 2), probs.at2(0, 0));
}

TEST(Softmax, NumericallyStableWithLargeLogits) {
  const Tensor logits({1, 2}, {1000.0f, 999.0f});
  const Tensor probs = softmax_rows(logits);
  EXPECT_FALSE(std::isnan(probs.at2(0, 0)));
  EXPECT_NEAR(probs.at2(0, 0), 1.0 / (1.0 + std::exp(-1.0)), 1e-4);
}

TEST(CrossEntropy, MatchesHandComputation) {
  const Tensor logits({1, 2}, {0.0f, 0.0f});
  const Tensor targets({1, 2}, {0.0f, 1.0f});
  Tensor grad;
  const double loss = softmax_cross_entropy(logits, targets, &grad);
  EXPECT_NEAR(loss, std::log(2.0), 1e-6);
  EXPECT_NEAR(grad.at2(0, 0), 0.5, 1e-6);
  EXPECT_NEAR(grad.at2(0, 1), -0.5, 1e-6);
}

TEST(CrossEntropy, GradientMatchesFiniteDifference) {
  util::Rng rng(4);
  const Tensor logits = Tensor::normal({3, 2}, rng, 0.0f, 1.0f);
  Tensor targets({3, 2});
  for (int r = 0; r < 3; ++r) {
    targets.at2(r, r % 2) = 1.0f;
  }
  Tensor grad;
  softmax_cross_entropy(logits, targets, &grad);
  const float h = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits;
    Tensor lm = logits;
    lp[i] += h;
    lm[i] -= h;
    const double numeric = (softmax_cross_entropy(lp, targets, nullptr) -
                            softmax_cross_entropy(lm, targets, nullptr)) /
                           (2.0 * h);
    EXPECT_NEAR(grad[i], numeric, 1e-3);
  }
}

TEST(Argmax, PicksLargestColumn) {
  const Tensor logits({2, 3}, {1, 5, 2, 9, 0, 3});
  const auto rows = argmax_rows(logits);
  EXPECT_EQ(rows[0], 1);
  EXPECT_EQ(rows[1], 0);
}

}  // namespace
}  // namespace hotspot::tensor
