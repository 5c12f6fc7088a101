#include "nn/batchnorm_layer.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tensor/tensor_ops.h"

namespace hotspot::nn {

namespace {

// Variance is mathematically nonnegative, but running_var entries can drift
// slightly negative through EMA float error or checkpoint round-trips; the
// raw 1/sqrt(var + eps) then yields NaN (or Inf once var + eps underflows to
// zero) and poisons every downstream activation. Clamping to zero keeps the
// factor finite for any var, and is a no-op on healthy statistics.
inline float inv_std_term(float var) {
  return 1.0f / std::sqrt(std::max(var, 0.0f) + BatchNorm2d::kEpsilon);
}

}  // namespace

BatchNorm2d::BatchNorm2d(std::int64_t channels)
    : channels_(channels),
      gamma_("gamma", Tensor::ones({channels})),
      beta_("beta", Tensor({channels})),
      running_mean_({channels}),
      running_var_(Tensor::ones({channels})) {
  HOTSPOT_CHECK_GT(channels, 0);
}

Tensor BatchNorm2d::forward(const Tensor& input) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  HOTSPOT_CHECK_EQ(input.dim(1), channels_);
  cached_input_shape_ = input.shape();
  const std::int64_t n = input.dim(0);
  const std::int64_t hw = input.dim(2) * input.dim(3);

  Tensor mean({channels_});
  Tensor var({channels_});
  if (training_) {
    mean = tensor::channel_mean(input);
    var = tensor::channel_variance(input, mean);
    // Exponential moving averages track statistics for inference.
    for (std::int64_t c = 0; c < channels_; ++c) {
      running_mean_[c] =
          (1.0f - kMomentum) * running_mean_[c] + kMomentum * mean[c];
      running_var_[c] =
          (1.0f - kMomentum) * running_var_[c] + kMomentum * var[c];
    }
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  cached_inv_std_ = Tensor({channels_});
  for (std::int64_t c = 0; c < channels_; ++c) {
    cached_inv_std_[c] = inv_std_term(var[c]);
  }

  Tensor output(input.shape());
  cached_xhat_ = Tensor(input.shape());
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float mu = mean[c];
      const float inv_std = cached_inv_std_[c];
      const float g = gamma_.value[c];
      const float b = beta_.value[c];
      const float* in_plane = input.data() + (ni * channels_ + c) * hw;
      float* xhat_plane = cached_xhat_.data() + (ni * channels_ + c) * hw;
      float* out_plane = output.data() + (ni * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        const float xhat = (in_plane[i] - mu) * inv_std;
        xhat_plane[i] = xhat;
        out_plane[i] = g * xhat + b;
      }
    }
  }
  return output;
}

Tensor BatchNorm2d::inference_inv_std() const {
  Tensor inv_std({channels_});
  for (std::int64_t c = 0; c < channels_; ++c) {
    inv_std[c] = inv_std_term(running_var_[c]);
  }
  return inv_std;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  HOTSPOT_CHECK(grad_output.shape() == cached_input_shape_)
      << "backward called with mismatched gradient shape";
  const std::int64_t n = grad_output.dim(0);
  const std::int64_t hw = grad_output.dim(2) * grad_output.dim(3);
  const auto m = static_cast<double>(n * hw);

  Tensor grad_input(cached_input_shape_);
  for (std::int64_t c = 0; c < channels_; ++c) {
    // Per-channel reductions: sum g, sum g*xhat.
    double sum_g = 0.0;
    double sum_g_xhat = 0.0;
    for (std::int64_t ni = 0; ni < n; ++ni) {
      const float* g_plane = grad_output.data() + (ni * channels_ + c) * hw;
      const float* xhat_plane = cached_xhat_.data() + (ni * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        sum_g += static_cast<double>(g_plane[i]);
        sum_g_xhat += static_cast<double>(g_plane[i]) *
                      static_cast<double>(xhat_plane[i]);
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_g_xhat);
    beta_.grad[c] += static_cast<float>(sum_g);

    const double gamma_inv_std = static_cast<double>(gamma_.value[c]) *
                                 static_cast<double>(cached_inv_std_[c]);
    if (training_) {
      // dx = gamma*inv_std/m * (m*g - sum(g) - xhat * sum(g*xhat))
      for (std::int64_t ni = 0; ni < n; ++ni) {
        const float* g_plane = grad_output.data() + (ni * channels_ + c) * hw;
        const float* xhat_plane =
            cached_xhat_.data() + (ni * channels_ + c) * hw;
        float* dx_plane = grad_input.data() + (ni * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          const double term = m * static_cast<double>(g_plane[i]) - sum_g -
                              static_cast<double>(xhat_plane[i]) * sum_g_xhat;
          dx_plane[i] = static_cast<float>(gamma_inv_std * term / m);
        }
      }
    } else {
      // Inference-mode statistics are constants w.r.t. the input.
      for (std::int64_t ni = 0; ni < n; ++ni) {
        const float* g_plane = grad_output.data() + (ni * channels_ + c) * hw;
        float* dx_plane = grad_input.data() + (ni * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          dx_plane[i] =
              static_cast<float>(gamma_inv_std * static_cast<double>(g_plane[i]));
        }
      }
    }
  }
  return grad_input;
}

std::vector<Parameter*> BatchNorm2d::parameters() {
  return {&gamma_, &beta_};
}

void BatchNorm2d::collect_state(const std::string& prefix,
                                std::vector<NamedTensor>& out) {
  Module::collect_state(prefix, out);
  out.push_back({prefix + "running_mean", &running_mean_});
  out.push_back({prefix + "running_var", &running_var_});
}

std::string BatchNorm2d::name() const {
  std::ostringstream out;
  out << "BatchNorm2d(" << channels_ << ")";
  return out.str();
}

}  // namespace hotspot::nn
