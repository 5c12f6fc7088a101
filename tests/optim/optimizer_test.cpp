#include <gtest/gtest.h>

#include <cmath>

#include "nn/linear_layer.h"
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
    optimizer.zero_grad();
    problem.fill_gradient();
    optimizer.step();
  }
  return problem.distance();
}

TEST(NAdam, ConvergesOnQuadratic) {
  EXPECT_LT(run_to_convergence(800, 0.05f), 1e-2);
}

TEST(Optimizer, StepCountIncrements) {
  QuadraticProblem problem({1.0f});
  NAdam optimizer({&problem.param()}, 0.1f);
  EXPECT_EQ(optimizer.step_count(), 0);
  optimizer.step();
  optimizer.step();
  EXPECT_EQ(optimizer.step_count(), 2);
}

TEST(Optimizer, LearningRateMutable) {
  QuadraticProblem problem({1.0f});
  NAdam optimizer({&problem.param()}, 0.1f);
  optimizer.set_learning_rate(0.01f);
  EXPECT_FLOAT_EQ(optimizer.learning_rate(), 0.01f);
}

}  // namespace
}  // namespace hotspot::optim
