#include "optim/nadam.h"

#include <cmath>

#include "util/check.h"

namespace hotspot::optim {

NAdam::NAdam(std::vector<nn::Parameter*> params, float learning_rate)
    : params_(std::move(params)), learning_rate_(learning_rate) {
  HOTSPOT_CHECK(!params_.empty()) << "optimizer needs parameters";
  HOTSPOT_CHECK_GT(learning_rate, 0.0f);
  first_moment_.reserve(params_.size());
  second_moment_.reserve(params_.size());
  for (const nn::Parameter* param : params_) {
    first_moment_.emplace_back(param->value.shape());
    second_moment_.emplace_back(param->value.shape());
  }
}

void NAdam::step() {
  const auto t = static_cast<double>(step_count_ + 1);
  const double b1 = static_cast<double>(kBeta1);
  const double b2 = static_cast<double>(kBeta2);
  const double bias1 = 1.0 - std::pow(b1, t);
  const double bias1_next = 1.0 - std::pow(b1, t + 1.0);
  const double bias2 = 1.0 - std::pow(b2, t);
  for (std::size_t p = 0; p < params_.size(); ++p) {
    nn::Parameter& param = *params_[p];
    tensor::Tensor& m = first_moment_[p];
    tensor::Tensor& v = second_moment_[p];
    for (std::int64_t i = 0; i < param.value.numel(); ++i) {
      const auto grad = static_cast<double>(param.grad[i]);
      m[i] = static_cast<float>(b1 * static_cast<double>(m[i]) + (1.0 - b1) * grad);
      v[i] = static_cast<float>(b2 * static_cast<double>(v[i]) +
                                (1.0 - b2) * grad * grad);
      // Nesterov look-ahead: blend the bias-corrected next-step momentum
      // with the current gradient (Dozat Eq. 7).
      const double m_hat = static_cast<double>(m[i]) / bias1_next;
      const double g_hat = grad / bias1;
      const double m_bar = b1 * m_hat + (1.0 - b1) * g_hat;
      const double v_hat = static_cast<double>(v[i]) / bias2;
      param.value[i] -= static_cast<float>(
          static_cast<double>(learning_rate_) * m_bar /
          (std::sqrt(v_hat) + static_cast<double>(kEpsilon)));
    }
  }
  for (nn::Parameter* param : params_) {
    param->bump_version();
  }
  ++step_count_;
}

double NAdam::grad_norm() const {
  double total = 0.0;
  for (const nn::Parameter* param : params_) {
    for (std::int64_t i = 0; i < param->grad.numel(); ++i) {
      const auto g = static_cast<double>(param->grad[i]);
      total += g * g;
    }
  }
  return std::sqrt(total);
}

void NAdam::scale_gradients(float scale) {
  for (nn::Parameter* param : params_) {
    for (std::int64_t i = 0; i < param->grad.numel(); ++i) {
      param->grad[i] *= scale;
    }
  }
}

}  // namespace hotspot::optim
