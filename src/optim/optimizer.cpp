#include "optim/optimizer.h"

#include <cmath>

#include "util/check.h"

namespace hotspot::optim {

Optimizer::Optimizer(std::vector<nn::Parameter*> params, float learning_rate)
    : params_(std::move(params)), learning_rate_(learning_rate) {
  HOTSPOT_CHECK(!params_.empty()) << "optimizer needs parameters";
  HOTSPOT_CHECK_GT(learning_rate, 0.0f);
}

void Optimizer::finish_step() {
  for (nn::Parameter* param : params_) {
    param->bump_version();
  }
  ++step_count_;
}

void Optimizer::zero_grad() {
  for (nn::Parameter* param : params_) {
    param->zero_grad();
  }
}

double Optimizer::grad_norm() const {
  double total = 0.0;
  for (const nn::Parameter* param : params_) {
    for (std::int64_t i = 0; i < param->grad.numel(); ++i) {
      const auto g = static_cast<double>(param->grad[i]);
      total += g * g;
    }
  }
  return std::sqrt(total);
}

void Optimizer::scale_gradients(float scale) {
  for (nn::Parameter* param : params_) {
    for (std::int64_t i = 0; i < param->grad.numel(); ++i) {
      param->grad[i] *= scale;
    }
  }
}

}  // namespace hotspot::optim
