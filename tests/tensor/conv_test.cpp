#include "tensor/conv.h"

#include <gtest/gtest.h>

#include "tensor/tensor_ops.h"

namespace hotspot::tensor {
namespace {

// Direct reference convolution for validation.
Tensor reference_conv(const Tensor& input, const Tensor& weight,
                      const ConvSpec& spec) {
  const std::int64_t n = input.dim(0);
  const std::int64_t cin = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t cout = weight.dim(0);
  const std::int64_t oh = conv_out_extent(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t ow = conv_out_extent(w, spec.kernel_w, spec.stride, spec.pad);
  Tensor out({n, cout, oh, ow});
  for (std::int64_t ni = 0; ni < n; ++ni)
    for (std::int64_t co = 0; co < cout; ++co)
      for (std::int64_t oy = 0; oy < oh; ++oy)
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc = 0.0;
          for (std::int64_t ci = 0; ci < cin; ++ci)
            for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky)
              for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
                const std::int64_t iy = oy * spec.stride - spec.pad + ky;
                const std::int64_t ix = ox * spec.stride - spec.pad + kx;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                acc += static_cast<double>(input.at4(ni, ci, iy, ix)) *
                       static_cast<double>(weight.at4(co, ci, ky, kx));
              }
          out.at4(ni, co, oy, ox) = static_cast<float>(acc);
        }
  return out;
}

TEST(ConvOutExtent, Formula) {
  EXPECT_EQ(conv_out_extent(32, 3, 1, 1), 32);
  EXPECT_EQ(conv_out_extent(32, 3, 2, 1), 16);
  EXPECT_EQ(conv_out_extent(32, 1, 1, 0), 32);
  EXPECT_EQ(conv_out_extent(5, 3, 1, 0), 3);
}

TEST(Im2col, IdentityKernelIsCopy) {
  util::Rng rng(1);
  const Tensor x = Tensor::normal({1, 2, 3, 3}, rng, 0.0f, 1.0f);
  const ConvSpec spec{1, 1, 1, 0};
  const Tensor cols = im2col(x, spec);
  EXPECT_EQ(cols.dim(0), 9);
  EXPECT_EQ(cols.dim(1), 2);
  EXPECT_FLOAT_EQ(cols.at2(4, 1), x.at4(0, 1, 1, 1));
}

TEST(Im2col, PadValueUsedOutside) {
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const ConvSpec spec{3, 3, 1, 1};
  const Tensor cols = im2col(x, spec, -1.0f);
  // First patch centered at (0,0): top-left neighbourhood is padding.
  EXPECT_FLOAT_EQ(cols.at2(0, 0), -1.0f);
  EXPECT_FLOAT_EQ(cols.at2(0, 4), 1.0f);  // centre = pixel (0,0)
}

TEST(Col2im, AdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for zero padding: the defining adjoint
  // identity that makes the conv backward correct.
  util::Rng rng(2);
  const Tensor x = Tensor::normal({2, 3, 5, 5}, rng, 0.0f, 1.0f);
  const ConvSpec spec{3, 3, 2, 1};
  const Tensor cols = im2col(x, spec);
  const Tensor y = Tensor::normal(cols.shape(), rng, 0.0f, 1.0f);
  const Tensor back = col2im(y, x.shape(), spec);
  const double lhs = mul(cols, y).sum();
  const double rhs = mul(x, back).sum();
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

struct ConvCase {
  std::int64_t n, cin, cout, hw, kernel, stride, pad;
};

class ConvParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamTest, MatchesReference) {
  const ConvCase c = GetParam();
  util::Rng rng(42);
  const Tensor x = Tensor::normal({c.n, c.cin, c.hw, c.hw}, rng, 0.0f, 1.0f);
  const Tensor w =
      Tensor::normal({c.cout, c.cin, c.kernel, c.kernel}, rng, 0.0f, 0.5f);
  const ConvSpec spec{c.kernel, c.kernel, c.stride, c.pad};
  const Tensor got = conv2d(x, w, spec);
  const Tensor want = reference_conv(x, w, spec);
  EXPECT_TRUE(allclose(got, want, 1e-3))
      << "max diff " << max_abs_diff(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParamTest,
    ::testing::Values(ConvCase{1, 1, 1, 4, 3, 1, 1},
                      ConvCase{2, 3, 4, 6, 3, 1, 1},
                      ConvCase{1, 2, 5, 8, 3, 2, 1},
                      ConvCase{2, 4, 2, 5, 1, 1, 0},
                      ConvCase{1, 3, 3, 7, 1, 2, 0},
                      ConvCase{1, 2, 2, 9, 5, 1, 2}));

TEST(Conv2dBackward, MatchesFiniteDifference) {
  util::Rng rng(7);
  const Tensor x = Tensor::normal({1, 2, 4, 4}, rng, 0.0f, 1.0f);
  const Tensor w = Tensor::normal({3, 2, 3, 3}, rng, 0.0f, 0.5f);
  const ConvSpec spec{3, 3, 1, 1};
  const Tensor g = Tensor::normal({1, 3, 4, 4}, rng, 0.0f, 1.0f);

  Tensor gx, gw;
  conv2d_backward(x, w, g, spec, &gx, &gw);

  auto loss = [&](const Tensor& xi, const Tensor& wi) {
    return mul(conv2d(xi, wi, spec), g).sum();
  };
  const float h = 1e-2f;
  for (std::int64_t i = 0; i < x.numel(); i += 5) {
    Tensor xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    EXPECT_NEAR(gx[i], (loss(xp, w) - loss(xm, w)) / (2 * h), 2e-2);
  }
  for (std::int64_t i = 0; i < w.numel(); i += 7) {
    Tensor wp = w, wm = w;
    wp[i] += h;
    wm[i] -= h;
    EXPECT_NEAR(gw[i], (loss(x, wp) - loss(x, wm)) / (2 * h), 2e-2);
  }
}

}  // namespace
}  // namespace hotspot::tensor
