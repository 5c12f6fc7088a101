// The inference plan's conv input stage evaluates batch norm inline
// (DESIGN.md §14): the sign bits and alpha_T scales it computes from the raw
// input must equal, bit for bit, those of the BN output the layer itself
// materializes in eval mode. These tests pin that on the primitives over a
// sweep of BN edge statistics and edge inputs: zero and negative running
// variance, gamma = 0 and negative gamma, signed zeros, denormals, inputs
// whose xhat overflows, and NaN/inf parameters and inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bitops/bit_planes.h"
#include "bitops/scaling.h"
#include "core/inference_plan.h"
#include "nn/batchnorm_layer.h"
#include "util/rng.h"

namespace hotspot::core {
namespace {

using tensor::Tensor;

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

// [2, C, 6, 8]: sample 0 holds the edge inputs in every channel (rotated
// per channel), sample 1 uniform noise.
Tensor make_input(std::int64_t channels, util::Rng& rng) {
  const std::vector<float> edges = edge_inputs();
  Tensor x({2, channels, 6, 8});
  const std::int64_t hw = 48;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t i = 0; i < hw; ++i) {
      x[c * hw + i] = edges[static_cast<std::size_t>((i + c) % hw)];
      x[(channels + c) * hw + i] = static_cast<float>(rng.uniform(-3.0, 3.0));
    }
  }
  return x;
}

// Compares float bit patterns, so NaN outputs compare too.
void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const std::string& context) {
  ASSERT_EQ(got.shape(), want.shape()) << context;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::memcmp(got.data() + i, want.data() + i, sizeof(float)), 0)
        << context << " diverges at flat index " << i << ": " << got[i]
        << " vs " << want[i];
  }
}

// Runs `check(bn, step, x, context)` over the whole sweep, four channels
// per layer (`step` is the plan's copy of `bn`): small groups keep one
// non-finite channel from turning every scalar-mode mean in the layer into
// NaN.
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
    const Tensor x = make_input(bn->channels(), rng);
    check(*bn, step, x, "channels from " + std::to_string(first));
  }
}

const tensor::ConvSpec kSpecs[] = {{3, 3, 1, 1}, {3, 3, 2, 1}, {1, 1, 2, 0}};

TEST(BnAffineIdentity, BitPlanesMatchBatchNormForward) {
  // The BN outputs must include NaN, both infinities and both signed zeros,
  // so the sign rule is checked at every edge, not only on tame values.
  bool nan = false, pos_inf = false, neg_inf = false, pos_zero = false,
       neg_zero = false;
  for_each_edge_group([&](nn::BatchNorm2d& bn, const BnStep& step,
                          const Tensor& x, const std::string& context) {
    const Tensor y = bn.forward(x);
    const bitops::BitPlanes inline_bits(x, step.affine());
    const bitops::BitPlanes materialized(y);
    for (std::int64_t n = 0; n < x.dim(0); ++n) {
      for (std::int64_t c = 0; c < x.dim(1); ++c) {
        for (std::int64_t row = 0; row < x.dim(2); ++row) {
          for (std::int64_t col = 0; col < x.dim(3); ++col) {
            ASSERT_EQ(inline_bits.get(n, c, row, col),
                      materialized.get(n, c, row, col))
                << context << " at n=" << n << " c=" << c << " y=" << row
                << " x=" << col << " input=" << x.at4(n, c, row, col)
                << " bn=" << y.at4(n, c, row, col);
          }
        }
      }
    }
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      nan |= std::isnan(y[i]);
      pos_inf |= y[i] == kInf;
      neg_inf |= y[i] == -kInf;
      pos_zero |= y[i] == 0.0f && !std::signbit(y[i]);
      neg_zero |= y[i] == 0.0f && std::signbit(y[i]);
    }
  });
  EXPECT_TRUE(nan && pos_inf && neg_inf && pos_zero && neg_zero);
}

TEST(BnAffineIdentity, PerChannelScalesMatchMaterialized) {
  for_each_edge_group([](nn::BatchNorm2d& bn, const BnStep& step,
                         const Tensor& x, const std::string& context) {
    const Tensor y = bn.forward(x);
    for (const tensor::ConvSpec& spec : kSpecs) {
      expect_bitwise_equal(
          bitops::input_scales_per_channel_affine(x, spec, step.affine()),
          bitops::input_scales_per_channel(y, spec), context);
    }
  });
}

TEST(BnAffineIdentity, ScalarScalesMatchMaterialized) {
  for_each_edge_group([](nn::BatchNorm2d& bn, const BnStep& step,
                         const Tensor& x, const std::string& context) {
    const Tensor y = bn.forward(x);
    for (const tensor::ConvSpec& spec : kSpecs) {
      expect_bitwise_equal(
          bitops::input_scales_scalar_affine(x, spec, step.affine()),
          bitops::input_scales_scalar(y, spec), context);
    }
  });
}

TEST(BnAffineIdentity, BnStepMatchesBatchNormForward) {
  for_each_edge_group([](nn::BatchNorm2d& bn, const BnStep& step,
                         const Tensor& x, const std::string& context) {
    expect_bitwise_equal(step.run(x), bn.forward(x), context);
  });
}

}  // namespace
}  // namespace hotspot::core
