#include "bitops/xnor_gemm.h"

#include <gtest/gtest.h>

#include "bitops/bit_planes.h"
#include "support/test_support.h"
#include "tensor/tensor_ops.h"

namespace hotspot::bitops {
namespace {

using tensor::ConvSpec;
using tensor::Tensor;

// The XNOR-popcount product of BitMatrix-packed rows (its row layout and
// zero tails) equals the float matmul of the signs.
TEST(XnorGemm, MatchesSignMatmul) {
  util::Rng rng(1);
  const Tensor a = Tensor::normal({5, 130}, rng, 0.0f, 1.0f);
  const Tensor b = Tensor::normal({7, 130}, rng, 0.0f, 1.0f);
  const Tensor counts = test_support::packed_sign_product(
      BitMatrix::pack_rows(a), BitMatrix::pack_rows(b));
  const Tensor expected = tensor::matmul(
      tensor::sign(a), tensor::transpose2d(tensor::sign(b)));
  EXPECT_TRUE(tensor::allclose(counts, expected, 1e-4));
}

// Channel-blocked patches hold each input channel's kh*kw im2col signs in
// the low bits of the channel's own word, and zeros above them.
TEST(PackPatches, MatchesFloatIm2colSigns) {
  util::Rng rng(2);
  const Tensor x = Tensor::normal({2, 3, 6, 6}, rng, 0.0f, 1.0f);
  for (const ConvSpec spec : {ConvSpec{3, 3, 1, 1}, ConvSpec{3, 3, 2, 1},
                              ConvSpec{1, 1, 2, 0}, ConvSpec{5, 5, 1, 2}}) {
    const BitMatrix packed = pack_patches_channel_blocked(x, spec);
    const Tensor reference =
        tensor::im2col(tensor::sign(x), spec, -1.0f);
    const std::int64_t kk = spec.kernel_h * spec.kernel_w;
    ASSERT_EQ(packed.rows(), reference.dim(0));
    std::int64_t mismatches = 0;
    for (std::int64_t row = 0; row < packed.rows(); ++row) {
      for (std::int64_t ci = 0; ci < 3; ++ci) {
        for (std::int64_t t = 0; t < 64; ++t) {
          const bool want = t < kk && reference.at2(row, ci * kk + t) > 0.0f;
          mismatches += packed.get(row, ci * 64 + t) != want ? 1 : 0;
        }
      }
    }
    EXPECT_EQ(mismatches, 0)
        << "kernel " << spec.kernel_h << " stride " << spec.stride;
  }
}

TEST(BinaryConvCounts, MatchesFloatSignConv) {
  util::Rng rng(3);
  const Tensor x = Tensor::normal({1, 4, 8, 8}, rng, 0.0f, 1.0f);
  const Tensor w = Tensor::normal({6, 4, 3, 3}, rng, 0.0f, 1.0f);
  const ConvSpec spec{3, 3, 1, 1};
  // Reference: float conv of signs with -1 padding via im2col + matmul,
  // [positions, Cout].
  const Tensor cols = tensor::im2col(tensor::sign(x), spec, -1.0f);
  const Tensor wmat = tensor::sign(w).reshaped({6, 4 * 9});
  const Tensor rows = tensor::matmul(cols, tensor::transpose2d(wmat));
  for (const XnorKernel* kernel : test_support::runnable_kernels()) {
    const Tensor counts = test_support::direct_conv_counts(*kernel, x, w, spec);
    for (std::int64_t co = 0; co < 6; ++co) {
      for (std::int64_t p = 0; p < 64; ++p) {
        EXPECT_FLOAT_EQ(counts.at4(0, co, p / 8, p % 8), rows.at2(p, co))
            << kernel->name;
      }
    }
  }
}

// The stride-2 sign streams hold the bits of the stride-1 stream, split by
// stride phase onto the output grid: lane (n, oy, ox) of phase (py, px) is
// input (n, 2oy + py, 2ox + px), lanes whose input is outside the image and
// lanes past the batch are zero; the stride-1 stream is the input's signs
// in NCHW order. Widths around the 64- and 128-column word boundaries.
TEST(BitPlanesLayout, ColumnParityMatchesRows) {
  util::Rng rng(8);
  const auto bit = [](const SignStreams& s, std::int64_t c, std::int64_t phase,
                      std::int64_t lane) {
    return (s.stream(c, phase)[lane >> 6] >> (lane & 63)) & 1u;
  };
  for (const std::int64_t width :
       {1, 2, 3, 7, 63, 64, 65, 127, 128, 129, 130, 200, 257}) {
    // Channel-major [C, N, H, W].
    const Tensor x = Tensor::normal({3, 2, 3, width}, rng, 0.0f, 1.0f);
    const SignStreams rows = test_support::sign_streams(x, {3, 3, 1, 1});
    const SignStreams phases = test_support::sign_streams(x, {3, 3, 2, 1});
    const std::int64_t out_w = (width + 1) / 2;
    ASSERT_EQ(phases.out_height(), 2);
    ASSERT_EQ(phases.out_width(), out_w);
    ASSERT_EQ(phases.phases(), 4);
    for (std::int64_t c = 0; c < 3; ++c) {
      for (std::int64_t n = 0; n < 2; ++n) {
        for (std::int64_t y = 0; y < 3; ++y) {
          for (std::int64_t col = 0; col < width; ++col) {
            ASSERT_EQ(bit(rows, c, 0, (n * 3 + y) * width + col),
                      x.at4(c, n, y, col) >= 0.0f ? 1u : 0u)
                << "width=" << width << " col=" << col;
          }
        }
        for (std::int64_t phase = 0; phase < 4; ++phase) {
          for (std::int64_t oy = 0; oy < 2; ++oy) {
            for (std::int64_t ox = 0; ox < out_w; ++ox) {
              const std::int64_t y = 2 * oy + phase / 2;
              const std::int64_t col = 2 * ox + phase % 2;
              const std::uint64_t want =
                  y < 3 && col < width
                      ? bit(rows, c, 0, (n * 3 + y) * width + col)
                      : 0u;
              ASSERT_EQ(bit(phases, c, phase, (n * 2 + oy) * out_w + ox),
                        want)
                  << "width=" << width << " phase=" << phase << " y=" << y
                  << " col=" << col;
            }
          }
        }
      }
      for (const SignStreams* s : {&rows, &phases}) {
        for (std::int64_t phase = 0; phase < s->phases(); ++phase) {
          for (std::int64_t lane = s->lanes(); lane < s->words() * 64;
               ++lane) {
            ASSERT_EQ(bit(*s, c, phase, lane), 0u)
                << "width=" << width << " lane=" << lane;
          }
        }
      }
    }
  }
}

TEST(ChannelBlockedPacking, OneWordPerChannel) {
  util::Rng rng(4);
  const Tensor x = Tensor::normal({1, 3, 4, 4}, rng, 0.0f, 1.0f);
  const ConvSpec spec{3, 3, 1, 1};
  const BitMatrix packed = pack_patches_channel_blocked(x, spec);
  EXPECT_EQ(packed.words_per_row(), 3);
  EXPECT_EQ(packed.rows(), 16);
}

TEST(ChannelBlockedPacking, DotsMatchDensePerChannel) {
  util::Rng rng(5);
  const Tensor x = Tensor::normal({1, 2, 5, 5}, rng, 0.0f, 1.0f);
  const Tensor w = Tensor::normal({3, 2, 3, 3}, rng, 0.0f, 1.0f);
  const ConvSpec spec{3, 3, 1, 1};
  const BitMatrix patches = pack_patches_channel_blocked(x, spec);
  const BitMatrix filters = pack_filters_channel_blocked(w);

  // Per-channel dot via bits must equal the float sign conv restricted to
  // that channel.
  const Tensor sx = tensor::sign(x);
  for (std::int64_t p = 0; p < 25; ++p) {
    for (std::int64_t co = 0; co < 3; ++co) {
      for (std::int64_t ci = 0; ci < 2; ++ci) {
        double expected = 0.0;
        const std::int64_t oy = p / 5;
        const std::int64_t ox = p % 5;
        for (std::int64_t ky = 0; ky < 3; ++ky) {
          for (std::int64_t kx = 0; kx < 3; ++kx) {
            const std::int64_t iy = oy - 1 + ky;
            const std::int64_t ix = ox - 1 + kx;
            const double sv = (iy < 0 || iy >= 5 || ix < 0 || ix >= 5)
                                  ? -1.0
                                  : sx.at4(0, ci, iy, ix);
            expected +=
                sv * (w.at4(co, ci, ky, kx) >= 0.0f ? 1.0 : -1.0);
          }
        }
        const std::uint64_t pw = patches.row(p)[ci];
        const std::uint64_t fw = filters.row(co)[ci];
        const std::int64_t dot = 9 - 2 * std::popcount(pw ^ fw);
        EXPECT_EQ(dot, static_cast<std::int64_t>(expected))
            << "p=" << p << " co=" << co << " ci=" << ci;
      }
    }
  }
}

TEST(ChannelBlockedPackingDeath, RejectsLargeKernels) {
  util::Rng rng(6);
  const Tensor x = Tensor::normal({1, 1, 20, 20}, rng, 0.0f, 1.0f);
  EXPECT_DEATH(pack_patches_channel_blocked(x, ConvSpec{9, 9, 1, 4}),
               "HOTSPOT_CHECK");
}

}  // namespace
}  // namespace hotspot::bitops
