// Randomized property sweeps over the binarization pipeline: for many
// random shapes, packed rows, the direct conv's counts and the
// channel-blocked packers must agree exactly with their sign-arithmetic
// definitions, and the alpha_T box sum bit for bit with Eq. 14 in plain
// loops (the Eq. 15 reference's alpha_T). (The packed conv paths are swept
// against the Eq. 15 reference in tests/core/conv_reference_test.cpp.)
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <string>

#include "bitops/scaling.h"
#include "bitops/xnor_gemm.h"
#include "support/eq15_reference.h"
#include "support/test_support.h"
#include "tensor/tensor_ops.h"

namespace hotspot::bitops {
namespace {

using tensor::ConvSpec;
using tensor::Tensor;

class RandomShapeSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomShapeSweep, XnorGemmEqualsSignMatmul) {
  // The XNOR-popcount product of BitMatrix-packed rows, at widths crossing
  // word boundaries, equals the float matmul of the signs.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const std::int64_t m = rng.uniform_int(1, 12);
  const std::int64_t n = rng.uniform_int(1, 12);
  const std::int64_t k = rng.uniform_int(1, 300);  // crosses word boundaries
  const Tensor a = Tensor::normal({m, k}, rng, 0.0f, 1.0f);
  const Tensor b = Tensor::normal({n, k}, rng, 0.0f, 1.0f);
  const Tensor counts = test_support::packed_sign_product(
      BitMatrix::pack_rows(a), BitMatrix::pack_rows(b));
  const Tensor expected =
      tensor::matmul(tensor::sign(a), tensor::transpose2d(tensor::sign(b)));
  ASSERT_TRUE(tensor::allclose(counts, expected, 1e-4))
      << "m=" << m << " n=" << n << " k=" << k;
}

TEST_P(RandomShapeSweep, BinaryConvCountsParity) {
  // Every +/-1 dot over p bits has the same parity as p: counts and patch
  // size are congruent mod 2. A cheap oracle-free invariant catching any
  // dropped or double-counted bit.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  const std::int64_t cin = rng.uniform_int(1, 4);
  const std::int64_t cout = rng.uniform_int(1, 4);
  const std::int64_t hw = rng.uniform_int(3, 9);
  const std::int64_t kernel = rng.bernoulli(0.5) ? 3 : 1;
  const ConvSpec spec{kernel, kernel, rng.bernoulli(0.5) ? 1L : 2L,
                      kernel == 3 ? 1L : 0L};
  const Tensor x = Tensor::normal({1, cin, hw, hw}, rng, 0.0f, 1.0f);
  const Tensor w = Tensor::normal({cout, cin, kernel, kernel}, rng, 0.0f, 1.0f);
  const std::int64_t patch = cin * kernel * kernel;
  for (const XnorKernel* kern : test_support::runnable_kernels()) {
    const Tensor counts = test_support::direct_conv_counts(*kern, x, w, spec);
    for (std::int64_t i = 0; i < counts.numel(); ++i) {
      const auto value = static_cast<std::int64_t>(counts[i]);
      ASSERT_EQ(((value % 2) + 2) % 2, patch % 2)
          << kern->name << ": count " << value
          << " has wrong parity for patch " << patch;
      ASSERT_LE(std::abs(value), patch);
    }
  }
}

TEST_P(RandomShapeSweep, ChannelBlockedAgreesWithDenseSum) {
  // Summing the per-channel blocked dots over channels must equal the +/-1
  // dot of the whole dense patch, summed in plain loops over the signs
  // (padding -1), for the same (position, filter) pair.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1299709 + 3);
  const std::int64_t cin = rng.uniform_int(1, 6);
  const std::int64_t hw = rng.uniform_int(4, 8);
  const ConvSpec spec{3, 3, 1, 1};
  const Tensor x = Tensor::normal({1, cin, hw, hw}, rng, 0.0f, 1.0f);
  const Tensor w = Tensor::normal({2, cin, 3, 3}, rng, 0.0f, 1.0f);

  const BitMatrix blocked_p = pack_patches_channel_blocked(x, spec);
  const BitMatrix blocked_f = pack_filters_channel_blocked(w);

  for (std::int64_t p = 0; p < hw * hw; ++p) {
    const std::int64_t oy = p / hw;
    const std::int64_t ox = p % hw;
    for (std::int64_t co = 0; co < 2; ++co) {
      std::int64_t total = 0;
      std::int64_t dense = 0;
      for (std::int64_t ci = 0; ci < cin; ++ci) {
        total += 9 - 2 * std::popcount(blocked_p.row(p)[ci] ^
                                       blocked_f.row(co)[ci]);
        for (std::int64_t ky = 0; ky < 3; ++ky) {
          for (std::int64_t kx = 0; kx < 3; ++kx) {
            const std::int64_t iy = oy - 1 + ky;
            const std::int64_t ix = ox - 1 + kx;
            const bool inside = iy >= 0 && iy < hw && ix >= 0 && ix < hw;
            const int sx = inside && x.at4(0, ci, iy, ix) >= 0.0f ? 1 : -1;
            const int sw = w.at4(co, ci, ky, kx) >= 0.0f ? 1 : -1;
            dense += sx * sw;
          }
        }
      }
      ASSERT_EQ(total, dense) << "p=" << p << " co=" << co << " cin=" << cin;
    }
  }
}

TEST_P(RandomShapeSweep, BoxFilterMatchesReferenceAtRandomSpecs) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 1);
  const std::int64_t c = rng.uniform_int(1, 4);
  const std::int64_t hw = rng.uniform_int(4, 12);
  const std::int64_t kernel = 1 + 2 * rng.uniform_int(0, 2);  // 1, 3, 5
  const ConvSpec spec{kernel, kernel, rng.uniform_int(1, 2),
                      rng.uniform_int(0, kernel / 2)};
  if (hw + 2 * spec.pad < kernel) {
    GTEST_SKIP() << "kernel larger than padded input";
  }
  const Tensor x = Tensor::normal({1, c, hw, hw}, rng, 0.0f, 2.0f);
  test_support::expect_bit_identical(
      input_scales_per_channel(x, spec), eq15::alpha_t_per_channel(x, spec),
      "c=" + std::to_string(c) + " hw=" + std::to_string(hw) +
          " k=" + std::to_string(kernel) + " s=" +
          std::to_string(spec.stride) + " p=" + std::to_string(spec.pad));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomShapeSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace hotspot::bitops
