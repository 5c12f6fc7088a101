#include "tensor/dct.h"

#include <cmath>
#include <numbers>

#include "tensor/tensor_ops.h"

namespace hotspot::tensor {
namespace {

// Orthonormal DCT-II basis matrix B with B[k][i] = s(k) cos(pi (i+0.5) k / n),
// so dct(x) = B x.
Tensor dct_basis(std::int64_t n) {
  Tensor basis({n, n});
  const double scale0 = std::sqrt(1.0 / static_cast<double>(n));
  const double scale = std::sqrt(2.0 / static_cast<double>(n));
  for (std::int64_t k = 0; k < n; ++k) {
    for (std::int64_t i = 0; i < n; ++i) {
      const double angle = std::numbers::pi *
                           (static_cast<double>(i) + 0.5) *
                           static_cast<double>(k) / static_cast<double>(n);
      basis.at2(k, i) =
          static_cast<float>((k == 0 ? scale0 : scale) * std::cos(angle));
    }
  }
  return basis;
}

}  // namespace

std::vector<std::pair<std::int64_t, std::int64_t>> zigzag_order(
    std::int64_t block) {
  HOTSPOT_CHECK_GT(block, 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> order;
  order.reserve(static_cast<std::size_t>(block * block));
  for (std::int64_t diag = 0; diag <= 2 * (block - 1); ++diag) {
    if (diag % 2 == 0) {
      // Walk up-right.
      for (std::int64_t r = std::min(diag, block - 1);
           r >= std::max<std::int64_t>(0, diag - block + 1); --r) {
        order.emplace_back(r, diag - r);
      }
    } else {
      // Walk down-left.
      for (std::int64_t r = std::max<std::int64_t>(0, diag - block + 1);
           r <= std::min(diag, block - 1); ++r) {
        order.emplace_back(r, diag - r);
      }
    }
  }
  return order;
}

Tensor block_dct_features(const Tensor& image, std::int64_t block,
                          std::int64_t coefficients) {
  HOTSPOT_CHECK_EQ(image.rank(), 2);
  HOTSPOT_CHECK_GT(block, 0);
  HOTSPOT_CHECK(coefficients > 0 && coefficients <= block * block)
      << "coefficients=" << coefficients << " block=" << block;
  HOTSPOT_CHECK_EQ(image.dim(0) % block, 0);
  HOTSPOT_CHECK_EQ(image.dim(1) % block, 0);
  const std::int64_t tiles_y = image.dim(0) / block;
  const std::int64_t tiles_x = image.dim(1) / block;
  const auto order = zigzag_order(block);
  const Tensor basis = dct_basis(block);
  const Tensor basis_t = transpose2d(basis);

  Tensor features({coefficients, tiles_y, tiles_x});
  Tensor tile({block, block});
  for (std::int64_t ty = 0; ty < tiles_y; ++ty) {
    for (std::int64_t tx = 0; tx < tiles_x; ++tx) {
      for (std::int64_t y = 0; y < block; ++y) {
        for (std::int64_t x = 0; x < block; ++x) {
          tile.at2(y, x) = image.at2(ty * block + y, tx * block + x);
        }
      }
      const Tensor spectrum = matmul(basis, matmul(tile, basis_t));
      for (std::int64_t k = 0; k < coefficients; ++k) {
        const auto [r, c] = order[static_cast<std::size_t>(k)];
        features.at({k, ty, tx}) = spectrum.at2(r, c);
      }
    }
  }
  return features;
}

}  // namespace hotspot::tensor
