#include "bitops/xnor_gemm.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bitops/kernels/xnor_kernel.h"
#include "util/parallel.h"

namespace hotspot::bitops {
namespace {

// Register-blocked tile shape: kRowTile rows of A against kColTile rows of B
// keeps kRowTile*kColTile popcount accumulators plus the A words live across
// the shared inner word loop (the kernel's xor_popcount_2x4 primitive), so
// each loaded word feeds several XNOR dots instead of one. All accumulation
// is integer, so the result is exact and independent of how the output is
// tiled or partitioned across threads.
constexpr std::int64_t kRowTile = 2;
constexpr std::int64_t kColTile = 4;

// Words to iterate per row pair: when both matrices carry the same padding,
// run over the full padded stride (zero pad words cancel in XOR) so the
// kernels take their tail-free vector path; otherwise fall back to the
// logical word count, which every kernel also handles.
std::int64_t common_words(const BitMatrix& a, const BitMatrix& b) {
  return a.word_stride() == b.word_stride() ? a.word_stride()
                                            : a.words_per_row();
}

// One full-width strip: out[i][0..n) for a single row of A, itself blocked
// kColTile columns at a time.
void gemm_row_strip(const XnorKernel& kern, const BitMatrix& a,
                    const BitMatrix& b, std::int64_t words, std::int64_t i,
                    float* crow) {
  const std::int64_t n = b.rows();
  const std::int64_t bits = a.cols();
  const std::uint64_t* arow = a.row(i);
  for (std::int64_t j = 0; j < n; ++j) {
    crow[j] = static_cast<float>(
        bits - 2 * kern.xor_popcount(arow, b.row(j), words));
  }
}

}  // namespace

tensor::Tensor xnor_gemm(const BitMatrix& a, const BitMatrix& b) {
  HOTSPOT_CHECK_EQ(a.cols(), b.cols()) << "xnor_gemm inner dimension";
  const XnorKernel& kern = active_xnor_kernel();
  const std::int64_t m = a.rows();
  const std::int64_t n = b.rows();
  const std::int64_t words = common_words(a, b);
  const std::int64_t bits = a.cols();
  tensor::Tensor out({m, n});
  float* c = out.data();
  util::parallel_for(0, m, /*grain=*/kRowTile * 4, [&](std::int64_t i_lo,
                                                       std::int64_t i_hi) {
    std::int64_t i = i_lo;
    for (; i + kRowTile <= i_hi; i += kRowTile) {
      const std::uint64_t* a0 = a.row(i);
      const std::uint64_t* a1 = a.row(i + 1);
      float* c0 = c + i * n;
      float* c1 = c0 + n;
      std::int64_t j = 0;
      for (; j + kColTile <= n; j += kColTile) {
        std::int64_t acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        kern.xor_popcount_2x4(a0, a1, b.row(j), b.row(j + 1), b.row(j + 2),
                              b.row(j + 3), words, acc);
        c0[j] = static_cast<float>(bits - 2 * acc[0]);
        c0[j + 1] = static_cast<float>(bits - 2 * acc[1]);
        c0[j + 2] = static_cast<float>(bits - 2 * acc[2]);
        c0[j + 3] = static_cast<float>(bits - 2 * acc[3]);
        c1[j] = static_cast<float>(bits - 2 * acc[4]);
        c1[j + 1] = static_cast<float>(bits - 2 * acc[5]);
        c1[j + 2] = static_cast<float>(bits - 2 * acc[6]);
        c1[j + 3] = static_cast<float>(bits - 2 * acc[7]);
      }
      for (; j < n; ++j) {
        const std::uint64_t* brow = b.row(j);
        c0[j] = static_cast<float>(
            bits - 2 * kern.xor_popcount(a0, brow, words));
        c1[j] = static_cast<float>(
            bits - 2 * kern.xor_popcount(a1, brow, words));
      }
    }
    for (; i < i_hi; ++i) {
      gemm_row_strip(kern, a, b, words, i, c + i * n);
    }
  });
  return out;
}

BitMatrix pack_patches(const BitPlanes& planes, const tensor::ConvSpec& spec) {
  const std::int64_t n = planes.batch();
  const std::int64_t cin = planes.channels();
  const std::int64_t h = planes.height();
  const std::int64_t w = planes.width();
  const std::int64_t out_h =
      tensor::conv_out_extent(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t out_w =
      tensor::conv_out_extent(w, spec.kernel_w, spec.stride, spec.pad);
  const std::int64_t patch = cin * spec.kernel_h * spec.kernel_w;
  const std::int64_t positions = out_h * out_w;
  const std::int64_t kw = spec.kernel_w;
  HOTSPOT_CHECK_LT(spec.pad, 64) << "bit-plane packing window shift";
  BitMatrix packed(n * positions, patch);
  util::parallel_for(0, n * positions, /*grain=*/32, [&](std::int64_t lo,
                                                         std::int64_t hi) {
    for (std::int64_t row_index = lo; row_index < hi; ++row_index) {
      const std::int64_t ni = row_index / positions;
      const std::int64_t p = row_index % positions;
      const std::int64_t oy = p / out_w;
      const std::int64_t ox = p % out_w;
      std::uint64_t* words = packed.row(row_index);
      const std::int64_t iy0 = oy * spec.stride - spec.pad;
      const std::int64_t ix0 = ox * spec.stride - spec.pad;
      std::int64_t bit = 0;
      std::uint64_t word = 0;  // register accumulator, flushed per word
      for (std::int64_t ci = 0; ci < cin; ++ci) {
        const std::int64_t plane = ni * cin + ci;
        for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
          const std::int64_t iy = iy0 + ky;
          // Row outside the image: kw zero bits (padding is -1 -> bit 0).
          const std::uint64_t group =
              (iy >= 0 && iy < h)
                  ? planes.window_bits(planes.row(plane, iy), ix0, kw)
                  : 0;
          // Append the kw-bit group at `bit`, spilling across the word
          // boundary when it straddles one.
          const int shift = static_cast<int>(bit & 63);
          word |= group << shift;
          if (shift + kw >= 64) {
            words[bit >> 6] = word;
            word = shift == 0 ? 0 : group >> (64 - shift);
          }
          bit += kw;
        }
      }
      if ((bit & 63) != 0) {
        words[bit >> 6] = word;
      }
    }
  });
  return packed;
}

BitMatrix pack_filters(const tensor::Tensor& weight) {
  HOTSPOT_CHECK_EQ(weight.rank(), 4);
  const std::int64_t cout = weight.dim(0);
  return BitMatrix::pack_rows(weight.reshaped({cout, weight.numel() / cout}));
}

BitMatrix pack_patches_channel_blocked(const tensor::Tensor& input,
                                       const tensor::ConvSpec& spec) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  return pack_patches_channel_blocked(BitPlanes(input), spec);
}

BitMatrix pack_patches_channel_blocked(const BitPlanes& planes,
                                       const tensor::ConvSpec& spec) {
  const std::int64_t patch_bits = spec.kernel_h * spec.kernel_w;
  HOTSPOT_CHECK_LE(patch_bits, 64)
      << "channel-blocked packing needs kh*kw <= 64";
  const std::int64_t n = planes.batch();
  const std::int64_t cin = planes.channels();
  const std::int64_t h = planes.height();
  const std::int64_t w = planes.width();
  const std::int64_t out_h =
      tensor::conv_out_extent(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t out_w =
      tensor::conv_out_extent(w, spec.kernel_w, spec.stride, spec.pad);
  const std::int64_t positions = out_h * out_w;
  const std::int64_t kw = spec.kernel_w;
  HOTSPOT_CHECK_LT(spec.pad, 64) << "bit-plane packing window shift";
  // One 64-bit word per channel: cols = cin * 64 keeps words_per_row = cin.
  BitMatrix packed(n * positions, cin * 64);
  util::parallel_for(0, n * positions, /*grain=*/32, [&](std::int64_t lo,
                                                         std::int64_t hi) {
    for (std::int64_t row_index = lo; row_index < hi; ++row_index) {
      const std::int64_t ni = row_index / positions;
      const std::int64_t p = row_index % positions;
      const std::int64_t oy = p / out_w;
      const std::int64_t ox = p % out_w;
      std::uint64_t* words = packed.row(row_index);
      const std::int64_t iy0 = oy * spec.stride - spec.pad;
      const std::int64_t ix0 = ox * spec.stride - spec.pad;
      for (std::int64_t ci = 0; ci < cin; ++ci) {
        const std::int64_t plane = ni * cin + ci;
        std::uint64_t word = 0;
        for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
          const std::int64_t iy = iy0 + ky;
          // Rows outside the image stay zero (padding is -1 -> bit 0);
          // kh*kw <= 64 so the groups never straddle the channel word.
          if (iy >= 0 && iy < h) {
            word |= planes.window_bits(planes.row(plane, iy), ix0, kw)
                    << (ky * kw);
          }
        }
        words[ci] = word;
      }
    }
  });
  return packed;
}

BitMatrix pack_filters_channel_blocked(const tensor::Tensor& weight) {
  HOTSPOT_CHECK_EQ(weight.rank(), 4);
  const std::int64_t cout = weight.dim(0);
  const std::int64_t cin = weight.dim(1);
  const std::int64_t patch_bits = weight.dim(2) * weight.dim(3);
  HOTSPOT_CHECK_LE(patch_bits, 64)
      << "channel-blocked packing needs kh*kw <= 64";
  BitMatrix packed(cout, cin * 64);
  for (std::int64_t co = 0; co < cout; ++co) {
    std::uint64_t* words = packed.row(co);
    for (std::int64_t ci = 0; ci < cin; ++ci) {
      std::uint64_t word = 0;
      std::int64_t bit = 0;
      for (std::int64_t ky = 0; ky < weight.dim(2); ++ky) {
        for (std::int64_t kx = 0; kx < weight.dim(3); ++kx, ++bit) {
          if (weight.at4(co, ci, ky, kx) >= 0.0f) {
            word |= std::uint64_t{1} << bit;
          }
        }
      }
      words[ci] = word;
    }
  }
  return packed;
}

}  // namespace hotspot::bitops
