#include <gtest/gtest.h>

#include <cmath>

#include "nn/linear_layer.h"
#include "optim/lr_scheduler.h"
#include "optim/nadam.h"
#include "tensor/tensor_ops.h"

namespace hotspot::optim {
namespace {

using nn::Parameter;
using tensor::Tensor;

// Quadratic bowl: loss = 0.5 * ||theta - target||^2, gradient = theta -
// target. The optimizer must drive theta to the target.
class QuadraticProblem {
 public:
  explicit QuadraticProblem(std::vector<float> target)
      : target_(std::move(target)),
        param_("theta", Tensor({static_cast<std::int64_t>(target_.size())})) {}

  void fill_gradient() {
    for (std::size_t i = 0; i < target_.size(); ++i) {
      param_.grad[static_cast<std::int64_t>(i)] =
          param_.value[static_cast<std::int64_t>(i)] - target_[i];
    }
  }

  double distance() const {
    double total = 0.0;
    for (std::size_t i = 0; i < target_.size(); ++i) {
      const double d = param_.value[static_cast<std::int64_t>(i)] - target_[i];
      total += d * d;
    }
    return std::sqrt(total);
  }

  Parameter& param() { return param_; }

 private:
  std::vector<float> target_;
  Parameter param_;
};

double run_to_convergence(int steps, float lr) {
  QuadraticProblem problem({1.0f, -2.0f, 3.0f});
  NAdam optimizer({&problem.param()}, lr);
  for (int i = 0; i < steps; ++i) {
    problem.fill_gradient();
    optimizer.step();
  }
  return problem.distance();
}

TEST(NAdam, ConvergesOnQuadratic) {
  EXPECT_LT(run_to_convergence(800, 0.05f), 1e-2);
}

// The compiled inference plan recompiles on Parameter::version, so every
// step must bump it.
TEST(NAdam, StepBumpsParameterVersion) {
  QuadraticProblem problem({1.0f});
  NAdam optimizer({&problem.param()}, 0.1f);
  const std::uint64_t before = problem.param().version;
  optimizer.step();
  optimizer.step();
  EXPECT_EQ(problem.param().version, before + 2);
}

// Four steps on fixed weights and gradients, with one plateau decay of the
// rate between the second and third, pinned bit for bit: the update
// arithmetic (float moments, double bias correction, the float constants
// widened to double) is what every trained model's bytes depend on.
// Columns 1 and 2 start at 0, so each weight is the sum of its updates;
// column 2's gradients are near ε. Widening β1 or ε as a double literal
// (0.9, 1e-8) instead of from the float constant changes bits in both.
TEST(NAdam, MatchesPinnedSteps) {
  Parameter param("w", Tensor({4}, {0.5f, 0.0f, 0.0f, -1.25f}));
  NAdam optimizer({&param}, 0.01f);
  PlateauDecay scheduler(optimizer);
  const float grads[4][4] = {{0.3f, 1.0f, 1.13e-8f, -0.7f},
                             {-0.2f, -0.3489f, -1.13e-8f, -0.5f},
                             {0.05f, 0.5f, 1.13e-8f, 0.9f},
                             {1.5f, 0.25f, 2e-8f, 0.0f}};
  const float expected[4][4] = {
      {0x1.f0e8d4p-2f, -0x1.e2e596p-7f, -0x1.002f4ap-7f, -0x1.3c3a34p+0f},
      {0x1.f43436p-2f, -0x1.e2a14ep-7f, -0x1.3dd574p-8f, -0x1.398a4cp+0f},
      {0x1.f3089ap-2f, -0x1.274274p-6f, -0x1.a7619cp-8f, -0x1.3a13b8p+0f},
      {0x1.edcee6p-2f, -0x1.53b1bp-6f, -0x1.274ccep-7f, -0x1.3a0788p+0f}};
  for (int s = 0; s < 4; ++s) {
    if (s == 2) {
      for (int epoch = 0; epoch <= kPlateauPatience + 1; ++epoch) {
        scheduler.observe(1.0);
      }
      ASSERT_EQ(optimizer.learning_rate(), 0.01f * kPlateauFactor);
    }
    for (int i = 0; i < 4; ++i) {
      param.grad[i] = grads[s][i];
    }
    optimizer.step();
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(param.value[i], expected[s][i]) << "step " << s << " i " << i;
    }
  }
}

TEST(Optimizer, LearningRateMutable) {
  QuadraticProblem problem({1.0f});
  NAdam optimizer({&problem.param()}, 0.1f);
  optimizer.set_learning_rate(0.01f);
  EXPECT_FLOAT_EQ(optimizer.learning_rate(), 0.01f);
}

}  // namespace
}  // namespace hotspot::optim
