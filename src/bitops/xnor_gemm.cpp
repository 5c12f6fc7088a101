#include "bitops/xnor_gemm.h"

#include <cstdint>

#include "bitops/bit_planes.h"
#include "util/check.h"
#include "util/parallel.h"

namespace hotspot::bitops {

BitMatrix pack_patches_channel_blocked(const tensor::Tensor& input,
                                       const tensor::ConvSpec& spec) {
  const BitPlanes planes(input);
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
