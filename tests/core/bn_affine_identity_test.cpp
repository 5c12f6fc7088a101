// The inference plan's conv input stage (bitops::conv_input) evaluates batch
// norm inline (DESIGN.md §14): the sign bits and alpha_T scales it computes
// from the raw input must equal, bit for bit, those of the BN output the
// layer itself materializes in eval mode. These tests pin that over a sweep
// of BN edge statistics and edge inputs: zero and negative running variance,
// gamma = 0 and negative gamma, signed zeros, denormals, inputs whose xhat
// overflows, and NaN/inf parameters and inputs, on plane shapes that reach
// the SSE body of the sign packer, its scalar row tails, multi-word rows,
// odd-width parity rows and odd heights at stride 2. The
// Eq. 15 reference the whole plan is compared against
// (tests/core/conv_reference_test.cpp) starts from that materialized output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bitops/scaling.h"
#include "core/inference_plan.h"
#include "nn/batchnorm_layer.h"
#include "support/test_support.h"
#include "tensor/pool.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace hotspot::core {
namespace {

using tensor::Tensor;
using test_support::expect_bit_identical;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kDenorm = std::numeric_limits<float>::denorm_min();

struct ChannelStats {
  float mean;
  float var;
  float gamma;
  float beta;
};

// Every combination of edge values for the four per-channel parameters.
std::vector<ChannelStats> edge_channels() {
  const float means[] = {0.0f, 0.3f, -2.0f, 1e38f, kInf, kNaN};
  const float vars[] = {1.0f, 0.0f, -0.5f, 1e-30f, 4.0f, kInf, kNaN};
  const float gammas[] = {1.0f,    -1.0f, 0.0f, -0.0f, 0.5f,
                          kDenorm, 3.0f,  kInf, -kInf, kNaN};
  const float betas[] = {0.0f, -0.0f, 0.7f, -0.7f, kDenorm, kInf, kNaN};
  std::vector<ChannelStats> out;
  for (const float mean : means) {
    for (const float var : vars) {
      for (const float gamma : gammas) {
        for (const float beta : betas) {
          out.push_back({mean, var, gamma, beta});
        }
      }
    }
  }
  return out;
}

// 48 inputs per plane: signed zeros, denormals, the float extremes (which
// overflow xhat against the large means and small variances above),
// infinities, NaN, values straddling the means, and a dense sweep.
std::vector<float> edge_inputs() {
  std::vector<float> xs = {0.0f,     -0.0f,     kDenorm, -kDenorm, FLT_MIN,
                           -FLT_MIN, FLT_MIN / 4, FLT_MAX, -FLT_MAX, 1e30f,
                           -1e30f,   kInf,      -kInf,   kNaN,     1.0f,
                           -1.0f,    0.3f,      std::nextafter(0.3f, 0.0f),
                           std::nextafter(0.3f, 1.0f), -2.0f, 3.25f, -17.5f};
  for (float x = -2.0f; xs.size() < 48; x += 0.16f) {
    xs.push_back(x);
  }
  return xs;
}

// A BN layer in eval mode holding `stats` as its running statistics and
// affine parameters.
std::unique_ptr<nn::BatchNorm2d> make_bn(
    const std::vector<ChannelStats>& stats) {
  auto bn = std::make_unique<nn::BatchNorm2d>(
      static_cast<std::int64_t>(stats.size()));
  for (std::size_t c = 0; c < stats.size(); ++c) {
    const auto i = static_cast<std::int64_t>(c);
    bn->mutable_running_mean()[i] = stats[c].mean;
    bn->mutable_running_var()[i] = stats[c].var;
    bn->gamma().value[i] = stats[c].gamma;
    bn->beta().value[i] = stats[c].beta;
  }
  bn->set_training(false);
  return bn;
}

struct PlaneShape {
  std::int64_t height, width;
};

// 6 x 8 fits one SSE-packed word per row; width 67 adds a second word of
// three scalar-tail columns (one parity word, odd width); width 130 gives
// two parity words per half; heights 5 and 7 are odd at stride 2.
const PlaneShape kShapes[] = {{6, 8}, {5, 67}, {7, 130}};

// [2, C, H, W]: sample 0 holds the edge inputs cycling through every
// channel (rotated per channel, so each edge value lands in SSE bodies and
// row tails), sample 1 uniform noise.
Tensor make_input(std::int64_t channels, const PlaneShape& shape,
                  util::Rng& rng) {
  const std::vector<float> edges = edge_inputs();
  Tensor x({2, channels, shape.height, shape.width});
  const std::int64_t hw = shape.height * shape.width;
  const auto period = static_cast<std::int64_t>(edges.size());
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t i = 0; i < hw; ++i) {
      x[c * hw + i] = edges[static_cast<std::size_t>((i + c) % period)];
      x[(channels + c) * hw + i] = static_cast<float>(rng.uniform(-3.0, 3.0));
    }
  }
  return x;
}

// Runs `check(bn, step, x, context)` over the whole sweep, every shape for
// each group of four channels per layer (`step` is the plan's copy of `bn`):
// small groups keep one non-finite channel from turning every scalar-mode
// mean in the layer into NaN.
template <typename Check>
void for_each_edge_group(Check&& check) {
  const std::vector<ChannelStats> channels = edge_channels();
  util::Rng rng(2024);
  for (std::size_t first = 0; first < channels.size(); first += 4) {
    const std::vector<ChannelStats> group(
        channels.begin() + static_cast<std::ptrdiff_t>(first),
        channels.begin() +
            static_cast<std::ptrdiff_t>(std::min(first + 4, channels.size())));
    const std::unique_ptr<nn::BatchNorm2d> bn = make_bn(group);
    const BnStep step(*bn);
    for (const PlaneShape& shape : kShapes) {
      const Tensor x = make_input(bn->channels(), shape, rng);
      check(*bn, step, x,
            "channels from " + std::to_string(first) + ", " +
                std::to_string(shape.height) + "x" +
                std::to_string(shape.width));
    }
  }
}

const tensor::ConvSpec kSpecs[] = {{3, 3, 1, 1}, {3, 3, 2, 1}, {1, 1, 2, 0}};
const bitops::InputScaling kScalings[] = {bitops::InputScaling::kPerChannel,
                                          bitops::InputScaling::kScalar};

// Every stored word of the sign streams `bits`, guard words included,
// against streams built from the materialized NCHW BN output `y`: bit
// (y >= 0) at each element's lane of its stride phase's stream (lane
// n*outH*outW + (y / stride)*outW + x / stride of phase (y % stride,
// x % stride)), every other bit zero. A 1x1 conv stores only phase 0.
void expect_sign_words(const bitops::SignStreams& bits, const Tensor& y,
                       const tensor::ConvSpec& spec,
                       const std::string& context) {
  const std::int64_t s = spec.stride;
  const std::int64_t out_h = (y.dim(2) + s - 1) / s;
  const std::int64_t out_w = (y.dim(3) + s - 1) / s;
  ASSERT_EQ(bits.channels(), y.dim(1)) << context;
  const std::int64_t phases = spec.kernel_h == 1 ? 1 : s * s;
  ASSERT_EQ(bits.phases(), phases) << context;
  ASSERT_EQ(bits.lanes(), y.dim(0) * out_h * out_w) << context;
  const std::vector<std::uint64_t>& got = bits.storage();
  std::vector<std::uint64_t> want(got.size(), 0);
  for (std::int64_t c = 0; c < y.dim(1); ++c) {
    for (std::int64_t phase = 0; phase < phases; ++phase) {
      const std::int64_t base = bits.stream(c, phase) - got.data();
      for (std::int64_t n = 0; n < y.dim(0); ++n) {
        for (std::int64_t row = phase / s; row < y.dim(2); row += s) {
          for (std::int64_t col = phase % s; col < y.dim(3); col += s) {
            const std::int64_t lane =
                (n * out_h + row / s) * out_w + col / s;
            want[static_cast<std::size_t>(base + (lane >> 6))] |=
                std::uint64_t{y.at4(n, c, row, col) >= 0.0f} << (lane & 63);
          }
        }
      }
    }
  }
  for (std::size_t word = 0; word < got.size(); ++word) {
    ASSERT_EQ(got[word], want[word]) << context << " stored word " << word;
  }
}

TEST(BnAffineIdentity, BitPlanesMatchBatchNormForward) {
  // The BN outputs must include NaN, both infinities, both signed zeros and
  // denormals, so the sign rule is checked at every edge, not only on tame
  // values.
  bool nan = false, pos_inf = false, neg_inf = false, pos_zero = false,
       neg_zero = false, denormal = false;
  for_each_edge_group([&](nn::BatchNorm2d& bn, const BnStep& step,
                          const Tensor& x, const std::string& context) {
    const Tensor y = bn.forward(x);
    // One stream per channel at stride 1, four phase streams at stride 2;
    // the bits must not depend on the scaling.
    for (const tensor::ConvSpec& spec : kSpecs) {
      for (const bitops::InputScaling scaling : kScalings) {
        const bitops::ConvInput in = bitops::conv_input(
            tensor::swap_leading_axes(x), step.affine(), spec, scaling);
        expect_sign_words(in.bits, y, spec,
                          context + ", stride " + std::to_string(spec.stride) +
                              ", " + bitops::to_string(scaling));
      }
    }
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      nan |= std::isnan(y[i]);
      pos_inf |= y[i] == kInf;
      neg_inf |= y[i] == -kInf;
      pos_zero |= y[i] == 0.0f && !std::signbit(y[i]);
      neg_zero |= y[i] == 0.0f && std::signbit(y[i]);
      denormal |= std::fpclassify(y[i]) == FP_SUBNORMAL;
    }
  });
  EXPECT_TRUE(nan && pos_inf && neg_inf && pos_zero && neg_zero && denormal);
}

// The plan's per-channel alpha_T is written in the direct conv's lane
// layout [C, lanes]: row c holds alpha_T(n, c, p) at column n * positions
// + p, zero past N * positions.
Tensor to_lane_layout(const Tensor& nchw) {
  const std::int64_t n = nchw.dim(0);
  const std::int64_t c = nchw.dim(1);
  const std::int64_t positions = nchw.dim(2) * nchw.dim(3);
  const std::int64_t lanes = (n * positions + 63) / 64 * 64;
  Tensor out({c, lanes});
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      for (std::int64_t p = 0; p < positions; ++p) {
        out.at2(ci, ni * positions + p) =
            nchw.data()[(ni * c + ci) * positions + p];
      }
    }
  }
  return out;
}

TEST(BnAffineIdentity, PerChannelScalesMatchMaterialized) {
  for_each_edge_group([](nn::BatchNorm2d& bn, const BnStep& step,
                         const Tensor& x, const std::string& context) {
    const Tensor y = bn.forward(x);
    for (const tensor::ConvSpec& spec : kSpecs) {
      expect_bit_identical(
          bitops::conv_input(tensor::swap_leading_axes(x), step.affine(),
                             spec, bitops::InputScaling::kPerChannel)
              .alpha,
          to_lane_layout(bitops::input_scales_per_channel(y, spec)), context);
    }
  });
}

TEST(BnAffineIdentity, ScalarScalesMatchMaterialized) {
  for_each_edge_group([](nn::BatchNorm2d& bn, const BnStep& step,
                         const Tensor& x, const std::string& context) {
    const Tensor y = bn.forward(x);
    for (const tensor::ConvSpec& spec : kSpecs) {
      expect_bit_identical(
          bitops::conv_input(tensor::swap_leading_axes(x), step.affine(),
                             spec, bitops::InputScaling::kScalar)
              .alpha,
          bitops::input_scales_scalar(y, spec), context);
    }
  });
}

// The plan's head evaluates the BN inside the global average pool, on the
// channel-major activation.
TEST(BnAffineIdentity, BnStepMatchesBatchNormForward) {
  for_each_edge_group([](nn::BatchNorm2d& bn, const BnStep& step,
                         const Tensor& x, const std::string& context) {
    const Tensor channel_major = tensor::swap_leading_axes(x);
    expect_bit_identical(
        step.global_avg_pool(channel_major.data(),
                             {x.dim(1), x.dim(0), x.dim(2), x.dim(3)}),
        tensor::global_avg_pool(bn.forward(x)), context);
  });
}

}  // namespace
}  // namespace hotspot::core
