#include "tensor/dct.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <set>
#include <vector>

#include "tensor/tensor_ops.h"

namespace hotspot::tensor {
namespace {

// Plain-loop orthonormal DCT-II of an n x n image in double, straight from
// the cosine formula: C[k][l] = s(k) s(l) sum_y sum_x X[y][x]
// cos(pi (y + 1/2) k / n) cos(pi (x + 1/2) l / n), s(0) = sqrt(1/n), else
// sqrt(2/n). `inverse` applies the transpose (DCT-III) instead.
std::vector<double> reference_dct(const std::vector<double>& input,
                                  std::int64_t n, bool inverse) {
  auto basis = [n](std::int64_t k, std::int64_t i) {
    const double s = std::sqrt((k == 0 ? 1.0 : 2.0) / static_cast<double>(n));
    return s * std::cos(std::numbers::pi * (static_cast<double>(i) + 0.5) *
                        static_cast<double>(k) / static_cast<double>(n));
  };
  std::vector<double> output(static_cast<std::size_t>(n * n), 0.0);
  for (std::int64_t a = 0; a < n; ++a) {
    for (std::int64_t b = 0; b < n; ++b) {
      double sum = 0.0;
      for (std::int64_t y = 0; y < n; ++y) {
        for (std::int64_t x = 0; x < n; ++x) {
          const double weight = inverse ? basis(y, a) * basis(x, b)
                                        : basis(a, y) * basis(b, x);
          sum += weight * input[static_cast<std::size_t>(y * n + x)];
        }
      }
      output[static_cast<std::size_t>(a * n + b)] = sum;
    }
  }
  return output;
}

// block_dct_features with one tile spanning the n x n image and all n²
// coefficients kept, unscattered from zig-zag order into an n x n spectrum.
std::vector<double> full_spectrum(const Tensor& image) {
  const std::int64_t n = image.dim(0);
  const Tensor features = block_dct_features(image, n, n * n);
  EXPECT_EQ(features.shape(), (Shape{n * n, 1, 1}));
  std::vector<double> spectrum(static_cast<std::size_t>(n * n), 0.0);
  const auto order = zigzag_order(n);
  for (std::int64_t k = 0; k < n * n; ++k) {
    const auto [r, c] = order[static_cast<std::size_t>(k)];
    spectrum[static_cast<std::size_t>(r * n + c)] = features[k];
  }
  return spectrum;
}

std::vector<double> to_doubles(const Tensor& image) {
  return std::vector<double>(image.data(), image.data() + image.numel());
}

TEST(Dct, ConstantImageHasOnlyDcTerm) {
  Tensor image({4, 4}, 2.0f);
  const std::vector<double> spectrum = full_spectrum(image);
  // Orthonormal DCT: DC = mean * sqrt(H*W) = 2 * 4 = 8.
  EXPECT_NEAR(spectrum[0], 8.0, 1e-5);
  for (std::size_t i = 1; i < spectrum.size(); ++i) {
    EXPECT_NEAR(spectrum[i], 0.0, 1e-5) << i;
  }
}

TEST(Dct, RoundTrip) {
  // The reference inverse (DCT-III) takes the features back to the image:
  // the basis block_dct_features applies is orthonormal.
  util::Rng rng(5);
  const Tensor image = Tensor::normal({8, 8}, rng, 0.0f, 1.0f);
  const std::vector<double> back =
      reference_dct(full_spectrum(image), 8, /*inverse=*/true);
  for (std::int64_t i = 0; i < image.numel(); ++i) {
    EXPECT_NEAR(back[static_cast<std::size_t>(i)], image[i], 1e-4) << i;
  }
}

TEST(Dct, ParsevalEnergyPreserved) {
  util::Rng rng(6);
  const Tensor image = Tensor::normal({8, 8}, rng, 0.0f, 1.0f);
  double energy = 0.0;
  for (const double c : full_spectrum(image)) {
    energy += c * c;
  }
  EXPECT_NEAR(l2_norm(image), std::sqrt(energy), 1e-3);
}

TEST(Dct, RowTransformMatchesCosine) {
  // Every coefficient, along rows and columns, matches the cosine formula.
  util::Rng rng(7);
  for (const std::int64_t n : {1, 4, 5, 8}) {
    const Tensor image = Tensor::normal({n, n}, rng, 0.0f, 1.0f);
    const std::vector<double> spectrum = full_spectrum(image);
    const std::vector<double> expected =
        reference_dct(to_doubles(image), n, /*inverse=*/false);
    for (std::size_t i = 0; i < spectrum.size(); ++i) {
      EXPECT_NEAR(spectrum[i], expected[i], 1e-5) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Zigzag, OrderForBlock3) {
  const auto order = zigzag_order(3);
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order[0], (std::pair<std::int64_t, std::int64_t>{0, 0}));
  EXPECT_EQ(order[1], (std::pair<std::int64_t, std::int64_t>{0, 1}));
  EXPECT_EQ(order[2], (std::pair<std::int64_t, std::int64_t>{1, 0}));
  EXPECT_EQ(order[3], (std::pair<std::int64_t, std::int64_t>{2, 0}));
  EXPECT_EQ(order.back(), (std::pair<std::int64_t, std::int64_t>{2, 2}));
}

TEST(Zigzag, VisitsEveryCellOnce) {
  const auto order = zigzag_order(5);
  std::set<std::pair<std::int64_t, std::int64_t>> seen(order.begin(),
                                                       order.end());
  EXPECT_EQ(seen.size(), 25u);
}

TEST(BlockDct, ShapeAndDcChannel) {
  Tensor image({8, 8}, 1.0f);
  const Tensor features = block_dct_features(image, 4, 6);
  EXPECT_EQ(features.shape(), (Shape{6, 2, 2}));
  // DC of each constant 4x4 tile = 1 * 4 = 4.
  EXPECT_NEAR(features.at({0, 0, 0}), 4.0f, 1e-5);
  EXPECT_NEAR(features.at({1, 1, 1}), 0.0f, 1e-5);
}

TEST(BlockDct, RejectsNonDivisibleImage) {
  Tensor image({6, 6});
  EXPECT_DEATH(block_dct_features(image, 4, 4), "HOTSPOT_CHECK");
}

TEST(BlockDct, DistinguishesTileContent) {
  Tensor image({8, 8});
  for (std::int64_t x = 0; x < 4; ++x) {
    image.at2(0, x) = 1.0f;  // content only in the top-left tile
  }
  const Tensor features = block_dct_features(image, 4, 4);
  EXPECT_GT(std::fabs(features.at({0, 0, 0})), 0.1f);
  EXPECT_NEAR(features.at({0, 1, 1}), 0.0f, 1e-6);
}

}  // namespace
}  // namespace hotspot::tensor
