#include "core/binary_conv.h"

#include <cmath>
#include <sstream>

#include "core/packed_conv.h"
#include "nn/init.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/parallel.h"

namespace hotspot::core {

using tensor::Tensor;

BinaryConv2d::BinaryConv2d(std::int64_t in_channels, std::int64_t out_channels,
                           std::int64_t kernel, std::int64_t stride,
                           std::int64_t pad, bitops::InputScaling scaling,
                           util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      spec_{kernel, kernel, stride, pad},
      scaling_(scaling) {
  HOTSPOT_CHECK_GT(in_channels, 0);
  HOTSPOT_CHECK_GT(out_channels, 0);
  HOTSPOT_CHECK_LE(kernel * kernel, kMaxDirectTaps)
      << "the packed direct conv needs kh*kw <= " << kMaxDirectTaps;
  HOTSPOT_CHECK(bitops::is_same_conv(spec_))
      << "the packed direct conv serves same convs: odd kernel, pad = "
         "kernel / 2, stride 1 or 2";
  const tensor::Shape weight_shape{out_channels, in_channels, kernel, kernel};
  const auto [fan_in, fan_out] = nn::compute_fans(weight_shape);
  weight_ = nn::Parameter(
      "weight", nn::xavier_uniform(weight_shape, fan_in, fan_out, rng));
}

Tensor BinaryConv2d::forward(const Tensor& input) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  HOTSPOT_CHECK_EQ(input.dim(1), in_channels_);
  if (span_label_.empty()) {
    return forward_float_sim(input);
  }
  obs::TraceSpan span(span_label_);
  return forward_float_sim(input);
}

Tensor BinaryConv2d::forward_float_sim(const Tensor& input) {
  cached_input_ = input;
  const std::int64_t n = input.dim(0);
  const std::int64_t out_h = tensor::conv_out_extent(
      input.dim(2), spec_.kernel_h, spec_.stride, spec_.pad);
  const std::int64_t out_w = tensor::conv_out_extent(
      input.dim(3), spec_.kernel_w, spec_.stride, spec_.pad);
  const std::int64_t positions = out_h * out_w;
  const std::int64_t patch = in_channels_ * spec_.kernel_h * spec_.kernel_w;

  // W~ rows: alpha_W(co) * sign(W row).
  cached_alpha_w_ = bitops::weight_scales(weight_.value);
  const Tensor wmat = weight_.value.reshaped({out_channels_, patch});
  cached_weight_tilde_ = Tensor({out_channels_, patch});
  util::parallel_for(0, out_channels_, /*grain=*/1, [&](std::int64_t co_lo,
                                                        std::int64_t co_hi) {
    for (std::int64_t co = co_lo; co < co_hi; ++co) {
      const float alpha = cached_alpha_w_[co];
      for (std::int64_t i = 0; i < patch; ++i) {
        cached_weight_tilde_.at2(co, i) =
            wmat.at2(co, i) >= 0.0f ? alpha : -alpha;
      }
    }
  });

  // Binarized input patches; padding is -1 so it stays in the alphabet.
  Tensor cols = tensor::im2col(tensor::sign(input), spec_, -1.0f);

  const std::int64_t kk = spec_.kernel_h * spec_.kernel_w;
  switch (scaling_) {
    case bitops::InputScaling::kPerChannel: {
      // Fold alpha_T(c, position) into the patch matrix: equivalent to the
      // per-channel Eq.-15 sum but expressible as one GEMM.
      cached_alpha_ = bitops::input_scales_per_channel(input, spec_);
      util::parallel_for(
          0, n * positions, /*grain=*/32,
          [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t row = lo; row < hi; ++row) {
              const std::int64_t ni = row / positions;
              const std::int64_t p = row % positions;
              for (std::int64_t ci = 0; ci < in_channels_; ++ci) {
                const float alpha =
                    cached_alpha_.at4(ni, ci, p / out_w, p % out_w);
                for (std::int64_t k = 0; k < kk; ++k) {
                  cols.at2(row, ci * kk + k) *= alpha;
                }
              }
            }
          });
      break;
    }
    case bitops::InputScaling::kScalar:
      cached_alpha_ = bitops::input_scales_scalar(input, spec_);
      break;
  }
  cached_cols_ = std::move(cols);

  const Tensor out_rows =
      tensor::matmul(cached_cols_, tensor::transpose2d(cached_weight_tilde_));

  Tensor output({n, out_channels_, out_h, out_w});
  util::parallel_for(0, n * positions, /*grain=*/64, [&](std::int64_t lo,
                                                         std::int64_t hi) {
    for (std::int64_t row = lo; row < hi; ++row) {
      const std::int64_t ni = row / positions;
      const std::int64_t p = row % positions;
      const float post =
          scaling_ == bitops::InputScaling::kScalar
              ? cached_alpha_.at4(ni, 0, p / out_w, p % out_w)
              : 1.0f;
      const float* src = out_rows.data() + row * out_channels_;
      float* dst = output.data() + ni * out_channels_ * positions + p;
      for (std::int64_t co = 0; co < out_channels_; ++co) {
        dst[co * positions] = src[co] * post;
      }
    }
  });
  return output;
}

Tensor BinaryConv2d::backward(const Tensor& grad_output) {
  HOTSPOT_CHECK_EQ(grad_output.rank(), 4);
  HOTSPOT_CHECK_EQ(grad_output.dim(1), out_channels_);
  HOTSPOT_CHECK(cached_input_.numel() > 0)
      << "backward without a float-sim forward";
  const std::int64_t n = cached_input_.dim(0);
  const std::int64_t out_h = grad_output.dim(2);
  const std::int64_t out_w = grad_output.dim(3);
  const std::int64_t positions = out_h * out_w;
  const std::int64_t patch = cached_cols_.dim(1);
  const std::int64_t kk = spec_.kernel_h * spec_.kernel_w;

  // Gradient w.r.t. the GEMM output rows; the scalar-mode position factor
  // distributes onto them.
  Tensor grad_rows({n * positions, out_channels_});
  util::parallel_for(0, n * positions, /*grain=*/64, [&](std::int64_t lo,
                                                         std::int64_t hi) {
    for (std::int64_t row = lo; row < hi; ++row) {
      const std::int64_t ni = row / positions;
      const std::int64_t p = row % positions;
      const float post =
          scaling_ == bitops::InputScaling::kScalar
              ? cached_alpha_.at4(ni, 0, p / out_w, p % out_w)
              : 1.0f;
      const float* src = grad_output.data() + ni * out_channels_ * positions + p;
      float* dst = grad_rows.data() + row * out_channels_;
      for (std::int64_t co = 0; co < out_channels_; ++co) {
        dst[co] = src[co * positions] * post;
      }
    }
  });

  // dl/dW~ = grad_rows^T @ cols, then Eq. 13 maps it to the real weights.
  const Tensor grad_wtilde =
      tensor::matmul(tensor::transpose2d(grad_rows), cached_cols_);
  const Tensor wmat = weight_.value.reshaped({out_channels_, patch});
  const auto inv_n = 1.0f / static_cast<float>(patch);
  util::parallel_for(0, out_channels_, /*grain=*/1, [&](std::int64_t co_lo,
                                                        std::int64_t co_hi) {
    for (std::int64_t co = co_lo; co < co_hi; ++co) {
      const float alpha = cached_alpha_w_[co];
      for (std::int64_t i = 0; i < patch; ++i) {
        const float w = wmat.at2(co, i);
        const float ste = std::fabs(w) < 1.0f ? alpha : 0.0f;
        weight_.grad[co * patch + i] += grad_wtilde.at2(co, i) * (inv_n + ste);
      }
    }
  });

  // dl/dcols; per-channel mode removes the folded alpha_T factor.
  Tensor grad_cols = tensor::matmul(grad_rows, cached_weight_tilde_);
  if (scaling_ == bitops::InputScaling::kPerChannel) {
    util::parallel_for(
        0, n * positions, /*grain=*/32, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t row = lo; row < hi; ++row) {
            const std::int64_t ni = row / positions;
            const std::int64_t p = row % positions;
            for (std::int64_t ci = 0; ci < in_channels_; ++ci) {
              const float alpha =
                  cached_alpha_.at4(ni, ci, p / out_w, p % out_w);
              for (std::int64_t k = 0; k < kk; ++k) {
                grad_cols.at2(row, ci * kk + k) *= alpha;
              }
            }
          }
        });
  }

  // Through im2col, then the input STE (Eq. 10-11).
  const Tensor grad_sign =
      tensor::col2im(grad_cols, cached_input_.shape(), spec_);
  Tensor grad_input(cached_input_.shape());
  util::parallel_for(0, grad_input.numel(), /*grain=*/4096,
                     [&](std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t i = lo; i < hi; ++i) {
                         grad_input[i] = std::fabs(cached_input_[i]) < 1.0f
                                             ? grad_sign[i]
                                             : 0.0f;
                       }
                     });
  return grad_input;
}

std::vector<nn::Parameter*> BinaryConv2d::parameters() { return {&weight_}; }

std::string BinaryConv2d::name() const {
  std::ostringstream out;
  out << "BinaryConv2d(" << in_channels_ << "->" << out_channels_ << ", k"
      << spec_.kernel_h << ", s" << spec_.stride << ", p" << spec_.pad
      << ", " << bitops::to_string(scaling_) << ")";
  return out.str();
}

}  // namespace hotspot::core
