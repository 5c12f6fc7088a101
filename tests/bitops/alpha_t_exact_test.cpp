// Exact alpha_T: the box sum behind input_scales_per_channel /
// input_scales_scalar (which float-sim's BinaryConv2d calls) and the plan's
// conv input stage (bitops::conv_input) must equal Eq. 14 spelled out in
// plain loops (the Eq. 15 reference's alpha_T, support/eq15_reference.h)
// bit for bit, on the edges of the separable sum: planes smaller than the
// kernel, odd extents at stride 2, signed zeros, infinities and NaN, the
// 1x1 stride-2 shortcut (alpha_T = |y| at the even positions) and batches
// that are not a multiple of the samples per lane word or span several
// tiles of the input stage, and the empty batch. Sign streams of those
// batches are checked against bits built here from the same values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bitops/channel_affine.h"
#include "bitops/scaling.h"
#include "support/eq15_reference.h"
#include "support/test_support.h"
#include "util/rng.h"

namespace hotspot::bitops {
namespace {

using tensor::ConvSpec;
using tensor::Tensor;
using test_support::expect_bit_identical;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// Seeded per-channel BN parameters.
struct Affine {
  Affine(std::int64_t channels, util::Rng& rng) {
    for (std::int64_t c = 0; c < channels; ++c) {
      mean.push_back(static_cast<float>(rng.uniform(-0.5, 0.5)));
      inv_std.push_back(static_cast<float>(rng.uniform(0.5, 2.0)));
      gamma.push_back(static_cast<float>(rng.uniform(-1.5, 1.5)));
      beta.push_back(static_cast<float>(rng.uniform(-0.5, 0.5)));
    }
  }
  // y = x for every x but -0 (which becomes +0, of equal |y| and sign).
  static Affine identity(std::int64_t channels) {
    util::Rng unused(0);
    Affine a(0, unused);
    a.mean.assign(static_cast<std::size_t>(channels), 0.0f);
    a.inv_std.assign(a.mean.size(), 1.0f);
    a.gamma.assign(a.mean.size(), 1.0f);
    a.beta.assign(a.mean.size(), 0.0f);
    return a;
  }
  ChannelAffine view() const {
    return {mean.data(), inv_std.data(), gamma.data(), beta.data()};
  }
  std::vector<float> mean, inv_std, gamma, beta;
};

// The NCHW BN output of the channel-major [C, N, H, W] input x.
Tensor bn_output(const Tensor& x, const Affine& affine) {
  const std::int64_t c = x.dim(0);
  const std::int64_t n = x.dim(1);
  const std::int64_t hw = x.dim(2) * x.dim(3);
  Tensor y({n, c, x.dim(2), x.dim(3)});
  for (std::int64_t ci = 0; ci < c; ++ci) {
    const auto i = static_cast<std::size_t>(ci);
    for (std::int64_t ni = 0; ni < n; ++ni) {
      for (std::int64_t p = 0; p < hw; ++p) {
        y[(ni * c + ci) * hw + p] =
            bn_eval(x[(ci * n + ni) * hw + p], affine.mean[i],
                    affine.inv_std[i], affine.gamma[i], affine.beta[i]);
      }
    }
  }
  return y;
}

// The plan's per-channel lane layout [C, lanes] of an NCHW alpha_T.
Tensor to_lanes(const Tensor& nchw) {
  const std::int64_t n = nchw.dim(0);
  const std::int64_t c = nchw.dim(1);
  const std::int64_t positions = nchw.dim(2) * nchw.dim(3);
  Tensor out({c, (n * positions + 63) / 64 * 64});
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      for (std::int64_t p = 0; p < positions; ++p) {
        out.at2(ci, ni * positions + p) = nchw[(ni * c + ci) * positions + p];
      }
    }
  }
  return out;
}

// Every stored stream word against bits built from y: bit (y >= 0) at lane
// n*outH*outW + (iy / s)*outW + ix / s of phase (iy % s, ix % s), for the
// phases the layout stores; all else zero.
void expect_sign_words(const SignStreams& bits, const Tensor& y,
                       const ConvSpec& spec, const std::string& context) {
  const std::int64_t s = spec.stride;
  const std::int64_t out_h = bits.out_height();
  const std::int64_t out_w = bits.out_width();
  const std::vector<std::uint64_t>& got = bits.storage();
  std::vector<std::uint64_t> want(got.size(), 0);
  for (std::int64_t c = 0; c < y.dim(1); ++c) {
    for (std::int64_t phase = 0; phase < bits.phases(); ++phase) {
      const std::int64_t base = bits.stream(c, phase) - got.data();
      for (std::int64_t n = 0; n < y.dim(0); ++n) {
        for (std::int64_t iy = phase / s; iy < y.dim(2); iy += s) {
          for (std::int64_t ix = phase % s; ix < y.dim(3); ix += s) {
            const std::int64_t lane = (n * out_h + iy / s) * out_w + ix / s;
            want[static_cast<std::size_t>(base + (lane >> 6))] |=
                std::uint64_t{y.at4(n, c, iy, ix) >= 0.0f} << (lane & 63);
          }
        }
      }
    }
  }
  for (std::size_t word = 0; word < got.size(); ++word) {
    ASSERT_EQ(got[word], want[word]) << context << " stored word " << word;
  }
}

// The plain routines on x (NCHW) and the input stage on its channel-major
// copy under `affine`, every scaling, against the reference.
void expect_exact(const Tensor& x_nchw, const ConvSpec& spec,
                  const Affine& affine, const std::string& context) {
  expect_bit_identical(input_scales_per_channel(x_nchw, spec),
                       eq15::alpha_t_per_channel(x_nchw, spec),
                       context + ", input_scales_per_channel");
  expect_bit_identical(input_scales_scalar(x_nchw, spec),
                       eq15::alpha_t_scalar(x_nchw, spec),
                       context + ", input_scales_scalar");
  const Tensor x = tensor::swap_leading_axes(x_nchw);
  const Tensor y = bn_output(x, affine);
  const ConvInput per_channel =
      conv_input(x, affine.view(), spec, InputScaling::kPerChannel);
  expect_bit_identical(per_channel.alpha,
                       to_lanes(eq15::alpha_t_per_channel(y, spec)),
                       context + ", conv_input per-channel");
  expect_sign_words(per_channel.bits, y, spec, context + ", bits");
  const ConvInput scalar =
      conv_input(x, affine.view(), spec, InputScaling::kScalar);
  expect_bit_identical(scalar.alpha, eq15::alpha_t_scalar(y, spec),
                       context + ", conv_input scalar");
  expect_sign_words(scalar.bits, y, spec, context + ", scalar bits");
}

std::string label(const tensor::Shape& shape, const ConvSpec& spec) {
  return tensor::shape_to_string(shape) + " k=" +
         std::to_string(spec.kernel_h) + " s=" + std::to_string(spec.stride);
}

const ConvSpec kSameSpecs[] = {{3, 3, 1, 1}, {3, 3, 2, 1}, {1, 1, 2, 0},
                               {1, 1, 1, 0}, {5, 5, 1, 2}, {5, 5, 2, 2}};

TEST(AlphaTExact, PlanesSmallerThanKernel) {
  util::Rng rng(41);
  for (const std::int64_t extent : {1, 2}) {
    for (const ConvSpec& spec : kSameSpecs) {
      const tensor::Shape shape{3, 2, extent, extent};
      expect_exact(Tensor::uniform(shape, rng, -2.0f, 2.0f), spec,
                   Affine(2, rng), label(shape, spec));
    }
  }
}

TEST(AlphaTExact, OddExtentsAtStride2) {
  util::Rng rng(42);
  const tensor::Shape shapes[] = {
      {2, 3, 5, 7}, {3, 2, 9, 3}, {1, 1, 1, 5}, {2, 2, 7, 1}, {2, 1, 3, 131}};
  for (const tensor::Shape& shape : shapes) {
    for (const ConvSpec& spec :
         {ConvSpec{3, 3, 2, 1}, ConvSpec{1, 1, 2, 0}, ConvSpec{5, 5, 2, 2}}) {
      expect_exact(Tensor::uniform(shape, rng, -2.0f, 2.0f), spec,
                   Affine(shape[1], rng), label(shape, spec));
    }
  }
}

TEST(AlphaTExact, SignedZerosInfinitiesAndNaN) {
  // Under the identity affine y = x, so the edge values reach the box sum
  // as they are: a window with an infinity sums to inf, one with a NaN to
  // NaN, and signed zeros add +0.
  const float edges[] = {0.0f, -0.0f, kInf, -kInf, kNaN, 1.5f, -0.25f,
                         0.0f, 3.0f,  -0.0f, 2.0f, -1.0f};
  util::Rng rng(43);
  for (const tensor::Shape& shape :
       {tensor::Shape{2, 3, 6, 6}, tensor::Shape{3, 2, 5, 9},
        tensor::Shape{1, 1, 2, 2}}) {
    Tensor x(shape);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      // Mostly finite noise, with the edge values scattered through it.
      x[i] = i % 3 == 0 ? edges[(i / 3) % 12]
                        : static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    for (const ConvSpec& spec : kSameSpecs) {
      expect_exact(x, spec, Affine::identity(shape[1]), label(shape, spec));
    }
  }
  // A plane of signed zeros gives +0 everywhere.
  Tensor zeros({1, 2, 4, 4});
  for (std::int64_t i = 0; i < zeros.numel(); ++i) {
    zeros[i] = i % 2 == 0 ? 0.0f : -0.0f;
  }
  const Tensor alpha = input_scales_per_channel(zeros, {3, 3, 1, 1});
  for (std::int64_t i = 0; i < alpha.numel(); ++i) {
    ASSERT_TRUE(alpha[i] == 0.0f && !std::signbit(alpha[i])) << i;
  }
}

TEST(AlphaTExact, OneByOneStride2IsAbsAtEvenPositions) {
  util::Rng rng(44);
  const ConvSpec spec{1, 1, 2, 0};
  for (const tensor::Shape& shape :
       {tensor::Shape{3, 4, 8, 8}, tensor::Shape{2, 3, 7, 5}}) {
    const Tensor x_nchw = Tensor::uniform(shape, rng, -3.0f, 3.0f);
    const Affine affine(shape[1], rng);
    const Tensor x = tensor::swap_leading_axes(x_nchw);
    const Tensor y = bn_output(x, affine);
    const Tensor plain = input_scales_per_channel(x_nchw, spec);
    const ConvInput in =
        conv_input(x, affine.view(), spec, InputScaling::kPerChannel);
    ASSERT_EQ(in.bits.phases(), 1);
    const std::int64_t out_h = (shape[2] + 1) / 2;
    const std::int64_t out_w = (shape[3] + 1) / 2;
    for (std::int64_t n = 0; n < shape[0]; ++n) {
      for (std::int64_t c = 0; c < shape[1]; ++c) {
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const float want_plain =
                std::fabs(x_nchw.at4(n, c, 2 * oy, 2 * ox));
            const float want_plan = std::fabs(y.at4(n, c, 2 * oy, 2 * ox));
            ASSERT_EQ(plain.at4(n, c, oy, ox), want_plain);
            ASSERT_EQ(in.alpha.at2(c, (n * out_h + oy) * out_w + ox),
                      want_plan);
          }
        }
      }
    }
  }
}

TEST(AlphaTExact, BatchesOffTheSampleGroup) {
  // 4x4 and 2x2 output planes put 4 and 16 samples in a lane word; these
  // batches end in a partial word, and the larger ones span several tiles
  // of the input stage, the last one partial.
  util::Rng rng(45);
  struct Case {
    tensor::Shape shape;
    ConvSpec spec;
  };
  const Case cases[] = {
      {{7, 3, 4, 4}, {3, 3, 1, 1}},    {{7, 3, 8, 8}, {3, 3, 2, 1}},
      {{17, 2, 2, 2}, {3, 3, 1, 1}},   {{17, 2, 4, 4}, {1, 1, 2, 0}},
      {{301, 2, 8, 8}, {3, 3, 1, 1}},  {{53, 2, 16, 16}, {3, 3, 2, 1}},
      {{1001, 1, 2, 2}, {3, 3, 1, 1}}, {{413, 2, 8, 8}, {3, 3, 2, 1}},
      {{3, 1, 130, 130}, {3, 3, 2, 1}}};
  for (const Case& c : cases) {
    expect_exact(Tensor::uniform(c.shape, rng, -2.0f, 2.0f), c.spec,
                 Affine(c.shape[1], rng), label(c.shape, c.spec));
  }
}

TEST(AlphaTExact, EmptyBatch) {
  // No samples: every routine returns its empty result.
  for (const ConvSpec& spec : kSameSpecs) {
    EXPECT_EQ(input_scales_per_channel(Tensor({0, 2, 4, 4}), spec).numel(),
              0);
    EXPECT_EQ(input_scales_scalar(Tensor({0, 2, 4, 4}), spec).numel(), 0);
    for (const InputScaling scaling :
         {InputScaling::kPerChannel, InputScaling::kScalar}) {
      const ConvInput in = conv_input(Tensor({2, 0, 4, 4}),
                                      Affine::identity(2).view(), spec,
                                      scaling);
      EXPECT_EQ(in.alpha.numel(), 0);
      EXPECT_EQ(in.bits.lanes(), 0);
    }
  }
}

}  // namespace
}  // namespace hotspot::bitops
