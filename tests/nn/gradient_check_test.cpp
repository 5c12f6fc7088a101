// Central-finite-difference validation of every differentiable layer's
// backward pass. Loss = <forward(x), G> for a fixed random G, so
// d loss/d x and d loss/d theta must match the layer's backward output and
// accumulated parameter gradients.
//
// The binarized layer (BinaryConv2d) is deliberately absent: its
// straight-through estimator is *defined* to differ from the true gradient
// of sign (which is zero almost everywhere), so it is validated
// structurally in its own tests instead.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

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

// Verifies the input gradient and all parameter gradients of `module` at
// input `x` against central differences.
void check_gradients(Module& module, const Tensor& x, double step,
                     double tolerance) {
  util::Rng rng(99);
  Tensor out = module.forward(x);
  const Tensor g = Tensor::normal(out.shape(), rng, 0.0f, 1.0f);
  module.zero_grad();
  const Tensor gx = module.backward(g);

  auto loss_at = [&](const Tensor& input) {
    return tensor::mul(module.forward(input), g).sum();
  };

  for (std::int64_t i = 0; i < x.numel(); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += static_cast<float>(step);
    xm[i] -= static_cast<float>(step);
    const double numeric = (loss_at(xp) - loss_at(xm)) / (2.0 * step);
    ASSERT_NEAR(gx[i], numeric, tolerance) << "input grad at " << i;
  }

  for (Parameter* param : module.parameters()) {
    for (std::int64_t i = 0; i < param->value.numel(); ++i) {
      const float saved = param->value[i];
      param->value[i] = saved + static_cast<float>(step);
      const double up = loss_at(x);
      param->value[i] = saved - static_cast<float>(step);
      const double down = loss_at(x);
      param->value[i] = saved;
      const double numeric = (up - down) / (2.0 * step);
      ASSERT_NEAR(param->grad[i], numeric, tolerance)
          << param->name << " grad at " << i;
    }
  }
}

TEST(GradientCheck, Linear) {
  util::Rng rng(1);
  Linear layer(4, 3, rng);
  check_gradients(layer, Tensor::normal({3, 4}, rng, 0.0f, 1.0f), 1e-2, 5e-2);
}

TEST(GradientCheck, Conv2d) {
  util::Rng rng(2);
  Conv2d layer(2, 3, 3, 1, 1, rng);
  check_gradients(layer, Tensor::normal({2, 2, 4, 4}, rng, 0.0f, 1.0f), 1e-2,
                  5e-2);
}

TEST(GradientCheck, Conv2dStrided) {
  util::Rng rng(3);
  Conv2d layer(2, 2, 3, 2, 1, rng);
  check_gradients(layer, Tensor::normal({1, 2, 5, 5}, rng, 0.0f, 1.0f), 1e-2,
                  5e-2);
}

TEST(GradientCheck, Conv2dOneByOne) {
  util::Rng rng(4);
  Conv2d layer(3, 2, 1, 1, 0, rng);
  check_gradients(layer, Tensor::normal({2, 3, 3, 3}, rng, 0.0f, 1.0f), 1e-2,
                  5e-2);
}

TEST(GradientCheck, BatchNormTraining) {
  util::Rng rng(5);
  BatchNorm2d layer(2);
  layer.set_training(true);
  check_gradients(layer, Tensor::normal({3, 2, 3, 3}, rng, 1.0f, 2.0f), 1e-2,
                  8e-2);
}

TEST(GradientCheck, BatchNormEval) {
  util::Rng rng(6);
  BatchNorm2d layer(2);
  // Adapt running stats first, then check the (simpler) eval-mode gradient.
  for (int i = 0; i < 5; ++i) {
    layer.forward(Tensor::normal({4, 2, 3, 3}, rng, 0.0f, 1.0f));
  }
  layer.set_training(false);
  check_gradients(layer, Tensor::normal({2, 2, 3, 3}, rng, 0.0f, 1.0f), 1e-2,
                  5e-2);
}

TEST(GradientCheck, ReLUAwayFromKink) {
  util::Rng rng(7);
  ReLU layer;
  // Keep inputs away from 0 where ReLU is non-differentiable.
  Tensor x = Tensor::normal({2, 5}, rng, 0.0f, 1.0f);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x[i]) < 0.1f) {
      x[i] = 0.5f;
    }
  }
  check_gradients(layer, x, 1e-3, 1e-2);
}

TEST(GradientCheck, MaxPoolAwayFromTies) {
  util::Rng rng(9);
  MaxPool2d layer(2);
  // Gaussian inputs have distinct values a.s., so argmax is stable under
  // the probe step.
  check_gradients(layer, Tensor::normal({1, 2, 4, 4}, rng, 0.0f, 5.0f), 1e-3,
                  1e-2);
}

TEST(GradientCheck, GlobalAvgPool) {
  util::Rng rng(10);
  GlobalAvgPool layer;
  check_gradients(layer, Tensor::normal({2, 3, 3, 3}, rng, 0.0f, 1.0f), 1e-2,
                  2e-2);
}

TEST(GradientCheck, ResidualWithProjection) {
  util::Rng rng(11);
  auto main_path = std::make_unique<Sequential>();
  main_path->emplace<Conv2d>(2, 3, 3, 2, 1, rng);
  auto shortcut = std::make_unique<Conv2d>(2, 3, 1, 2, 0, rng);
  ResidualBlock block(std::move(main_path), std::move(shortcut));
  check_gradients(block, Tensor::normal({1, 2, 4, 4}, rng, 0.0f, 1.0f), 1e-2,
                  5e-2);
}

TEST(GradientCheck, SmallMlpEndToEnd) {
  util::Rng rng(12);
  Sequential net;
  net.emplace<Linear>(6, 4, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(4, 2, rng);
  // Nudge pre-activations away from ReLU kinks by scaling up.
  const Tensor x = tensor::scale(Tensor::normal({3, 6}, rng, 0.0f, 1.0f), 1.5f);
  check_gradients(net, x, 1e-2, 6e-2);
}

}  // namespace
}  // namespace hotspot::nn
