// The one reference for the bit-identity contract (DESIGN.md §14): Eq. 15
// in plain loops on the BN output BatchNorm2d's eval forward materializes.
//   sign      +1 iff v >= 0 (-0 -> +1, NaN -> -1), padding -1;
//   alpha_T   Eq. 14 on that same tensor in box_sum.h's float order,
//             spelled out below (box_alpha);
//   aggregate per-channel: the canonical weighted order of
//             kernels/xnor_kernel.h (per output position, channels
//             ascending from +0.0f) over the integer per-channel dots, times
//             alpha_W; scalar: the integer patch count * alpha_W * the
//             alpha_T map.
// It shares no code with BitPlanes, BitMatrix, the XNOR GEMM, packed_conv,
// the inference plan or any XnorKernel. The float order is part of the
// contract, so it is spelled out here rather than summed in double; the
// including test is compiled with -ffp-contract=off, like the kernels.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "bitops/scaling.h"
#include "core/binary_conv.h"
#include "nn/batchnorm_layer.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "tensor/conv.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace hotspot::eq15 {

using tensor::Tensor;

// Bit positions where a and b differ over `words` 64-bit words, counted one
// bit at a time.
inline std::int64_t differing_bits(const std::uint64_t* a,
                                   const std::uint64_t* b,
                                   std::int64_t words) {
  std::int64_t count = 0;
  for (std::int64_t w = 0; w < words; ++w) {
    for (int bit = 0; bit < 64; ++bit) {
      count += ((a[w] >> bit) & 1u) != ((b[w] >> bit) & 1u) ? 1 : 0;
    }
  }
  return count;
}

// The canonical weighted order: one accumulator from +0.0f, and for c
// ascending acc = acc + alpha[c] * float(dots[c]) (a rounded multiply, then
// a rounded add).
inline float canonical_weighted_sum(const float* alpha,
                                    const std::int64_t* dots,
                                    std::int64_t channels) {
  float acc = 0.0f;
  for (std::int64_t c = 0; c < channels; ++c) {
    const float term = alpha[c] * static_cast<float>(dots[c]);
    acc = acc + term;
  }
  return acc;
}

// Eq. 14 at output (oy, ox) of the h x w plane `plane` (row-major): for
// each window row, |v| summed over ascending dx from +0.0f, a term outside
// the plane adding +0.0f; those row sums added over ascending dy from
// +0.0f; times 1 / (kh*kw).
inline float box_alpha(const float* plane, std::int64_t h, std::int64_t w,
                       const tensor::ConvSpec& spec, std::int64_t oy,
                       std::int64_t ox) {
  float total = 0.0f;
  for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
    const std::int64_t iy = oy * spec.stride - spec.pad + ky;
    float row = 0.0f;
    for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
      const std::int64_t ix = ox * spec.stride - spec.pad + kx;
      const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
      row = row + (inside ? std::fabs(plane[iy * w + ix]) : 0.0f);
    }
    total = total + row;
  }
  return total * (1.0f / static_cast<float>(spec.kernel_h * spec.kernel_w));
}

// Per-channel alpha_T of [N,C,H,W]: [N,C,outH,outW].
inline Tensor alpha_t_per_channel(const Tensor& y,
                                  const tensor::ConvSpec& spec) {
  const std::int64_t h = y.dim(2);
  const std::int64_t w = y.dim(3);
  const std::int64_t out_h =
      tensor::conv_out_extent(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t out_w =
      tensor::conv_out_extent(w, spec.kernel_w, spec.stride, spec.pad);
  Tensor out({y.dim(0), y.dim(1), out_h, out_w});
  for (std::int64_t ni = 0; ni < y.dim(0); ++ni) {
    for (std::int64_t ci = 0; ci < y.dim(1); ++ci) {
      const float* plane = y.data() + (ni * y.dim(1) + ci) * h * w;
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          out.at4(ni, ci, oy, ox) = box_alpha(plane, h, w, spec, oy, ox);
        }
      }
    }
  }
  return out;
}

// XNOR-Net's scalar alpha_T of [N,C,H,W]: per sample the channel mean
// float(sum over ascending c of double(|v|) / C) at every position, then
// box_alpha over that mean plane: [N,1,outH,outW].
inline Tensor alpha_t_scalar(const Tensor& y, const tensor::ConvSpec& spec) {
  const std::int64_t c = y.dim(1);
  const std::int64_t hw = y.dim(2) * y.dim(3);
  Tensor means({y.dim(0), 1, y.dim(2), y.dim(3)});
  for (std::int64_t ni = 0; ni < y.dim(0); ++ni) {
    for (std::int64_t i = 0; i < hw; ++i) {
      double total = 0.0;
      for (std::int64_t ci = 0; ci < c; ++ci) {
        total += std::fabs(static_cast<double>(y[(ni * c + ci) * hw + i]));
      }
      means[ni * hw + i] =
          static_cast<float>(total / static_cast<double>(c));
    }
  }
  return alpha_t_per_channel(means, spec);
}

// The dense epilogue: count * alpha_w * post, left to right.
inline float dense_epilogue(std::int64_t count, float alpha_w, float post) {
  const float scaled = static_cast<float>(count) * alpha_w;
  return scaled * post;
}

// Eq. 15 on `bn_out` [N,Cin,H,W] with real weights [Cout,Cin,kh,kw]:
// [N,Cout,outH,outW].
inline Tensor binary_conv(const Tensor& bn_out, const Tensor& weight,
                          const tensor::ConvSpec& spec,
                          bitops::InputScaling scaling) {
  HOTSPOT_CHECK_EQ(bn_out.rank(), 4);
  HOTSPOT_CHECK_EQ(weight.rank(), 4);
  HOTSPOT_CHECK_EQ(weight.dim(1), bn_out.dim(1));
  const std::int64_t n = bn_out.dim(0);
  const std::int64_t cin = bn_out.dim(1);
  const std::int64_t h = bn_out.dim(2);
  const std::int64_t w = bn_out.dim(3);
  const std::int64_t cout = weight.dim(0);
  const std::int64_t out_h =
      tensor::conv_out_extent(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t out_w =
      tensor::conv_out_extent(w, spec.kernel_w, spec.stride, spec.pad);
  const Tensor alpha_w = bitops::weight_scales(weight);
  const bool per_channel = scaling == bitops::InputScaling::kPerChannel;
  const Tensor alpha_t = per_channel ? alpha_t_per_channel(bn_out, spec)
                                     : alpha_t_scalar(bn_out, spec);

  Tensor out({n, cout, out_h, out_w});
  std::vector<std::int64_t> dots(static_cast<std::size_t>(cin));
  std::vector<float> alpha(static_cast<std::size_t>(cin));
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t co = 0; co < cout; ++co) {
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          // Integer +/-1 dot of each input channel's window with the
          // filter's signs.
          std::int64_t count = 0;
          for (std::int64_t ci = 0; ci < cin; ++ci) {
            std::int64_t dot = 0;
            for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
              for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
                const std::int64_t iy = oy * spec.stride - spec.pad + ky;
                const std::int64_t ix = ox * spec.stride - spec.pad + kx;
                const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
                const int sx =
                    inside && bn_out.at4(ni, ci, iy, ix) >= 0.0f ? 1 : -1;
                const int sw = weight.at4(co, ci, ky, kx) >= 0.0f ? 1 : -1;
                dot += sx * sw;
              }
            }
            const auto c = static_cast<std::size_t>(ci);
            dots[c] = dot;
            count += dot;
            alpha[c] = per_channel ? alpha_t.at4(ni, ci, oy, ox) : 0.0f;
          }
          if (per_channel) {
            out.at4(ni, co, oy, ox) =
                canonical_weighted_sum(alpha.data(), dots.data(), cin) *
                alpha_w[co];
          } else {
            out.at4(ni, co, oy, ox) = dense_epilogue(
                count, alpha_w[co], alpha_t.at4(ni, 0, oy, ox));
          }
        }
      }
    }
  }
  return out;
}

// BatchNorm2d + BinaryConv2d, the model's conv block, through the reference.
inline Tensor conv_block(nn::Module& module, const Tensor& input) {
  auto& block = dynamic_cast<nn::Sequential&>(module);
  HOTSPOT_CHECK_EQ(block.size(), 2u);
  auto& bn = dynamic_cast<nn::BatchNorm2d&>(block.at(0));
  auto& conv = dynamic_cast<core::BinaryConv2d&>(block.at(1));
  HOTSPOT_CHECK(!bn.training()) << "the reference runs eval-mode BN";
  return binary_conv(bn.forward(input), conv.weight().value, conv.spec(),
                     conv.scaling());
}

// Logits of a BrnnModel's module tree (model.net(), in eval mode) with every
// conv block through conv_block; pools, the head BN, global pooling and the
// fc layer run their own eval forwards.
inline Tensor network_logits(nn::Sequential& net, const Tensor& images) {
  Tensor current = images;
  for (std::size_t i = 0; i < net.size(); ++i) {
    nn::Module& layer = net.at(i);
    if (dynamic_cast<nn::Sequential*>(&layer) != nullptr) {
      current = conv_block(layer, current);
    } else if (auto* residual = dynamic_cast<nn::ResidualBlock*>(&layer)) {
      auto& main_path = dynamic_cast<nn::Sequential&>(residual->main_path());
      const Tensor main_out =
          conv_block(main_path.at(1), conv_block(main_path.at(0), current));
      // Operand order of ResidualBlock::forward.
      current = tensor::add(main_out, residual->shortcut() != nullptr
                                          ? conv_block(*residual->shortcut(),
                                                       current)
                                          : current);
    } else {
      current = layer.forward(current);  // max pool, head BN, GAP, fc
    }
  }
  return current;
}

}  // namespace hotspot::eq15
