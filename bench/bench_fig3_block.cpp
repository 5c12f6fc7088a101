// Fig. 3: the BNN convolution block (BatchNorm -> Binarize -> BinaryConv).
//
// Two measurements:
//  1. Stage cost breakdown of one block in the deployed path (sign bits of
//     the BN output evaluated inline, alpha_T, the direct XNOR conv): where
//     the time actually goes.
//  2. The information-loss rationale for placing BN *before* the binarize
//     layer (Sec. 3.1, following XNOR-Net): binarizing centred activations
//     keeps far more per-pixel information than binarizing raw ones. We
//     quantify it as the entropy of the sign bit over each channel.
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "bitops/bit_planes.h"
#include "bitops/scaling.h"
#include "core/inference_plan.h"
#include "core/packed_conv.h"
#include "nn/batchnorm_layer.h"
#include "tensor/tensor_ops.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace hotspot;

// Mean per-channel entropy (bits) of the sign of the activations: 1.0 means
// the binarized channel carries a full bit per pixel, 0 means it is
// constant (all information destroyed by binarization).
double mean_sign_entropy(const tensor::Tensor& x) {
  const std::int64_t c = x.dim(1);
  const std::int64_t plane = x.dim(0) * x.dim(2) * x.dim(3);
  double total = 0.0;
  for (std::int64_t ci = 0; ci < c; ++ci) {
    std::int64_t positive = 0;
    for (std::int64_t n = 0; n < x.dim(0); ++n) {
      for (std::int64_t i = 0; i < x.dim(2) * x.dim(3); ++i) {
        positive += x.data()[(n * c + ci) * x.dim(2) * x.dim(3) + i] >= 0.0f;
      }
    }
    const double p = static_cast<double>(positive) / static_cast<double>(plane);
    if (p > 0.0 && p < 1.0) {
      total += -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
    }
  }
  return total / static_cast<double>(c);
}

}  // namespace

int main() {
  using namespace hotspot;
  bench::print_header(
      "Fig. 3: BNN block structure (BN -> Binarize -> BinaryConv)",
      "BN placed before binarizing to reduce the information loss of "
      "binarization (following XNOR-Net)");

  util::Rng rng(1);
  const std::int64_t channels = 64;
  const std::int64_t spatial = 16;
  const tensor::ConvSpec spec{3, 3, 1, 1};
  // Strong positive offset, as post-conv pre-activations typically have:
  // without BN, sign() maps nearly everything to +1.
  const tensor::Tensor x =
      tensor::Tensor::normal({8, channels, spatial, spatial}, rng, 2.0f, 1.0f);
  const tensor::Tensor w = tensor::Tensor::normal(
      {channels, channels, 3, 3}, rng, 0.0f, 0.1f);

  // 1. Stage cost breakdown (per-channel scaling mode).
  nn::BatchNorm2d bn(channels);
  for (int i = 0; i < 40; ++i) {
    bn.forward(x);  // converge the running statistics
  }
  bn.set_training(false);
  util::Table costs({"Stage", "Time (ms)"});
  util::Stopwatch timer;
  const tensor::Tensor normed = bn.forward(x);
  costs.add_row({"BatchNorm", util::format_double(timer.milliseconds(), 2)});
  // The deployed block evaluates the BN inline (core::ConvStep) on the
  // plan's channel-major activations, transposed here outside the timers.
  const core::BnStep bn_step(bn);
  const bitops::ChannelAffine affine = bn_step.affine();
  const tensor::Tensor x_cnhw = tensor::swap_leading_axes(x);
  timer.restart();
  const bitops::ConvInput in = bitops::conv_input(
      x_cnhw, affine, spec, bitops::InputScaling::kPerChannel);
  costs.add_row({"Input stage (BN inline, sign streams + alpha_T box filter)",
                 util::format_double(timer.milliseconds(), 2)});
  timer.restart();
  const core::DirectFilters filters = core::pack_direct_filters(w);
  const tensor::Tensor alpha_w = bitops::weight_scales(w);
  costs.add_row({"Pack filters (cached at deploy)",
                 util::format_double(timer.milliseconds(), 2)});
  timer.restart();
  // The binary convolution arithmetic: tap words, XNOR, adder tree, alpha.
  tensor::Tensor out({channels, x.dim(0), spatial, spatial});
  core::direct_conv(bitops::active_xnor_kernel(), in.bits, spec, filters,
                    &in.alpha, alpha_w, nullptr, out);
  costs.add_row({"Direct XNOR conv",
                 util::format_double(timer.milliseconds(), 2)});
  std::printf(
      "Block stage costs (C=%lld, %lldx%lld, batch 8; out[0] %g):\n%s\n",
      static_cast<long long>(channels), static_cast<long long>(spatial),
      static_cast<long long>(spatial), static_cast<double>(out[0]),
      costs.to_string().c_str());

  // 2. BN-before-binarize information retention.
  // Raw activations with a strong positive offset (typical post-conv):
  // their sign is almost always +1 -> near-zero information survives.
  const double raw_entropy = mean_sign_entropy(x);
  const double bn_entropy = mean_sign_entropy(normed);
  util::Table info({"Binarize input", "Mean sign entropy (bits/pixel)"});
  info.add_row({"raw activations", util::format_double(raw_entropy, 3)});
  info.add_row({"after BatchNorm", util::format_double(bn_entropy, 3)});
  std::printf("%s", info.to_string().c_str());
  std::printf("BN centres each channel, so sign() keeps ~1 bit/pixel instead "
              "of collapsing (the Fig. 3 ordering rationale).\n");
  return 0;
}
