#include "optim/nadam.h"

#include <cmath>

#include "util/check.h"

namespace hotspot::optim {

NAdam::NAdam(std::vector<nn::Parameter*> params, float learning_rate,
             float beta1, float beta2, float epsilon, float weight_decay)
    : Optimizer(std::move(params), learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  HOTSPOT_CHECK(beta1 >= 0.0f && beta1 < 1.0f) << "beta1=" << beta1;
  HOTSPOT_CHECK(beta2 >= 0.0f && beta2 < 1.0f) << "beta2=" << beta2;
  HOTSPOT_CHECK_GT(epsilon, 0.0f);
  first_moment_.reserve(params_.size());
  second_moment_.reserve(params_.size());
  for (const nn::Parameter* param : params_) {
    first_moment_.emplace_back(param->value.shape());
    second_moment_.emplace_back(param->value.shape());
  }
}

void NAdam::step() {
  const auto t = static_cast<double>(step_count_ + 1);
  const double b1 = static_cast<double>(beta1_);
  const double b2 = static_cast<double>(beta2_);
  const double bias1 = 1.0 - std::pow(b1, t);
  const double bias1_next = 1.0 - std::pow(b1, t + 1.0);
  const double bias2 = 1.0 - std::pow(b2, t);
  for (std::size_t p = 0; p < params_.size(); ++p) {
    nn::Parameter& param = *params_[p];
    tensor::Tensor& m = first_moment_[p];
    tensor::Tensor& v = second_moment_[p];
    for (std::int64_t i = 0; i < param.value.numel(); ++i) {
      const double grad =
          static_cast<double>(param.grad[i]) +
          static_cast<double>(weight_decay_) * static_cast<double>(param.value[i]);
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
          (std::sqrt(v_hat) + static_cast<double>(epsilon_)));
    }
  }
  finish_step();
}

}  // namespace hotspot::optim
