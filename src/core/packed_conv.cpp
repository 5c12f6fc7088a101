#include "core/packed_conv.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <vector>

#include "util/check.h"
#include "util/parallel.h"

namespace hotspot::core {
namespace {

// The alpha row every channel reads (at alpha stride 0) when the scaling
// has no per-channel alpha_T.
alignas(64) constexpr std::array<float, 64> kUnitAlpha = [] {
  std::array<float, 64> ones{};
  ones.fill(1.0f);
  return ones;
}();

// Shape of one direct conv call; lanes are the flattened output positions
// (n, p), 64 per lane word.
struct LaneGeometry {
  std::int64_t in_channels, channel_stride, height, width;
  std::int64_t out_w, positions, lanes, words;
  std::int64_t kernel_h, kernel_w, taps, stride, pad;
};

// Bits [start, start + len) of a bitmap row of `words` words (bit i =
// column i). Columns past the stored words read 0, and rows keep the bits
// past their width 0, so the right padding reads 0; columns left of 0 read
// 0 (the left padding). Requires -64 < start and 1 <= len <= 64.
inline std::uint64_t row_bits(const std::uint64_t* row, std::int64_t words,
                              std::int64_t start, std::int64_t len) {
  std::uint64_t bits = 0;
  if (start >= 0) {
    const std::int64_t word = start >> 6;
    const int offset = static_cast<int>(start & 63);
    if (word < words) {
      bits = row[word] >> offset;
      if (offset != 0 && word + 1 < words) {
        bits |= row[word + 1] << (64 - offset);
      }
    }
  } else {
    bits = row[0] << -start;
  }
  return len < 64 ? bits & ((std::uint64_t{1} << len) - 1) : bits;
}

// Tap words of lane words [g0, g1):
// taps[((g - g0) * k*k + t) * channel_stride + c] holds, at bit j, the sign
// bit under tap t = ky*kw + kx of output lane 64g + j in input channel c;
// the words of the padding channels stay 0. A lane word is cut into runs
// of one output row each; every run is one shifted row slice per tap.
void build_taps(const bitops::BitPlanes& planes, const LaneGeometry& geo,
                std::int64_t g0, std::int64_t g1, std::uint64_t* taps) {
  const std::int64_t cin = geo.in_channels;
  const std::int64_t stride = geo.channel_stride;
  std::fill(taps, taps + (g1 - g0) * geo.taps * stride, 0);
  const std::int64_t row_words = planes.row_words();
  for (std::int64_t g = g0; g < g1; ++g) {
    std::uint64_t* word_taps = taps + (g - g0) * geo.taps * stride;
    const std::int64_t lane0 = g * 64;
    const std::int64_t end = std::min(lane0 + 64, geo.lanes);
    for (std::int64_t lane = lane0; lane < end;) {
      const std::int64_t ni = lane / geo.positions;
      const std::int64_t p = lane % geo.positions;
      const std::int64_t oy = p / geo.out_w;
      const std::int64_t ox = p % geo.out_w;
      const std::int64_t len = std::min(geo.out_w - ox, end - lane);
      const int shift = static_cast<int>(lane - lane0);
      for (std::int64_t ky = 0; ky < geo.kernel_h; ++ky) {
        const std::int64_t iy = oy * geo.stride - geo.pad + ky;
        if (iy < 0 || iy >= geo.height) {
          continue;  // padding rows: the taps stay 0
        }
        for (std::int64_t c = 0; c < cin; ++c) {
          const std::int64_t plane = ni * cin + c;
          for (std::int64_t kx = 0; kx < geo.kernel_w; ++kx) {
            // Input column ox*stride + d. At stride 2 that is column
            // ox + floor(d/2) of the even (d even) or odd (d odd) half.
            const std::int64_t d = kx - geo.pad;
            const std::uint64_t bits =
                geo.stride == 1
                    ? row_bits(planes.row(plane, iy), row_words, ox + d, len)
                    : row_bits(planes.parity_row(plane, iy, d & 1),
                               row_words, ox + (d >> 1), len);
            word_taps[(ky * geo.kernel_w + kx) * stride + c] |= bits
                                                                << shift;
          }
        }
      }
      lane += len;
    }
  }
}

}  // namespace

DirectFilters pack_direct_filters(const tensor::Tensor& weight) {
  HOTSPOT_CHECK_EQ(weight.rank(), 4);
  DirectFilters filters;
  filters.out_channels = weight.dim(0);
  filters.in_channels = weight.dim(1);
  filters.channel_stride = (filters.in_channels + 7) / 8 * 8;
  filters.taps = weight.dim(2) * weight.dim(3);
  HOTSPOT_CHECK_LE(filters.taps, kMaxDirectTaps)
      << "the direct conv counts mismatches in four bit-planes";
  filters.bits.assign(
      static_cast<std::size_t>(filters.out_channels * filters.channel_stride),
      0);
  const float* w = weight.data();
  for (std::int64_t o = 0; o < filters.out_channels; ++o) {
    std::uint16_t* row = filters.bits.data() + o * filters.channel_stride;
    for (std::int64_t c = 0; c < filters.in_channels; ++c) {
      for (std::int64_t t = 0; t < filters.taps; ++t) {
        if (w[(o * filters.in_channels + c) * filters.taps + t] >= 0.0f) {
          row[c] |= static_cast<std::uint16_t>(1u << t);
        }
      }
    }
  }
  return filters;
}

void direct_conv(const bitops::XnorKernel& kern,
                 const bitops::BitPlanes& planes,
                 const tensor::ConvSpec& spec, const DirectFilters& filters,
                 const tensor::Tensor* alpha_lanes,
                 const tensor::Tensor& alpha_w, const tensor::Tensor* post,
                 tensor::Tensor& output) {
  LaneGeometry geo{};
  geo.in_channels = planes.channels();
  geo.channel_stride = filters.channel_stride;
  geo.height = planes.height();
  geo.width = planes.width();
  geo.kernel_h = spec.kernel_h;
  geo.kernel_w = spec.kernel_w;
  geo.taps = spec.kernel_h * spec.kernel_w;
  geo.stride = spec.stride;
  geo.pad = spec.pad;
  const std::int64_t n = planes.batch();
  const std::int64_t cin = geo.in_channels;
  const std::int64_t cout = filters.out_channels;
  HOTSPOT_CHECK_EQ(filters.in_channels, cin);
  HOTSPOT_CHECK_EQ(filters.taps, geo.taps);
  HOTSPOT_CHECK(spec.stride == 1 || spec.stride == 2)
      << "the direct conv handles stride 1 and 2";
  HOTSPOT_CHECK((spec.stride == 2) ==
                (planes.layout() == bitops::BitLayout::kColumnParity))
      << "stride-2 convs read the column-parity layout";
  HOTSPOT_CHECK_LT(spec.pad, 64) << "tap window shift";
  const std::int64_t out_h = tensor::conv_out_extent(
      geo.height, spec.kernel_h, spec.stride, spec.pad);
  geo.out_w = tensor::conv_out_extent(geo.width, spec.kernel_w, spec.stride,
                                      spec.pad);
  geo.positions = out_h * geo.out_w;
  geo.lanes = n * geo.positions;
  geo.words = (geo.lanes + 63) / 64;
  HOTSPOT_CHECK_EQ(output.dim(0), n);
  HOTSPOT_CHECK_EQ(output.dim(1), cout);
  HOTSPOT_CHECK_EQ(output.dim(2), out_h);
  HOTSPOT_CHECK_EQ(output.dim(3), geo.out_w);
  std::int64_t alpha_stride = 0;  // kUnitAlpha without per-channel lanes
  if (alpha_lanes != nullptr) {
    HOTSPOT_CHECK_EQ(alpha_lanes->dim(0), cin);
    HOTSPOT_CHECK_EQ(alpha_lanes->dim(1), geo.words * 64);
    alpha_stride = geo.words * 64;
  }
  if (post != nullptr) {
    HOTSPOT_CHECK_EQ(post->numel(), geo.lanes);
  }

  // Lane words per block: the block's tap words (about 32 KB) stay in cache
  // while every filter reads them.
  const std::int64_t block =
      std::max<std::int64_t>(1, 4096 / (geo.taps * geo.channel_stride));
  util::parallel_for(0, geo.words, block, [&](std::int64_t lo,
                                              std::int64_t hi) {
    // Per-chunk scratch; chunks never share it.
    std::vector<std::uint64_t> taps(static_cast<std::size_t>(
        std::min(block, hi - lo) * geo.taps * geo.channel_stride));
    alignas(64) float lane_out[64];
    for (std::int64_t g0 = lo; g0 < hi; g0 += block) {
      const std::int64_t g1 = std::min(hi, g0 + block);
      build_taps(planes, geo, g0, g1, taps.data());
      for (std::int64_t o = 0; o < cout; ++o) {
        for (std::int64_t g = g0; g < g1; ++g) {
          kern.direct_accumulate(
              taps.data() + (g - g0) * geo.taps * geo.channel_stride,
              filters.bits.data() + o * geo.channel_stride,
              alpha_lanes != nullptr ? alpha_lanes->data() + g * 64
                                     : kUnitAlpha.data(),
              alpha_stride, cin, geo.channel_stride, geo.taps, alpha_w[o],
              lane_out);
          // Scatter the word's lanes to NCHW, one run per sample, times the
          // post factor of the lane if there is one.
          const std::int64_t lane0 = g * 64;
          const std::int64_t end = std::min(lane0 + 64, geo.lanes);
          for (std::int64_t lane = lane0; lane < end;) {
            const std::int64_t ni = lane / geo.positions;
            const std::int64_t p = lane % geo.positions;
            const std::int64_t len = std::min(geo.positions - p, end - lane);
            float* dst = output.data() + (ni * cout + o) * geo.positions + p;
            const float* src = lane_out + (lane - lane0);
            if (post != nullptr) {
              const float* factor = post->data() + lane;
              for (std::int64_t i = 0; i < len; ++i) {
                dst[i] = src[i] * factor[i];
              }
            } else {
              std::memcpy(dst, src,
                          static_cast<std::size_t>(len) * sizeof(float));
            }
            lane += len;
          }
        }
      }
    }
  });
}

void packed_conv_per_channel(const bitops::XnorKernel& /*kern*/,
                             const bitops::BitMatrix& patches,
                             const bitops::BitMatrix& filters,
                             const tensor::Tensor& alpha_t,
                             const tensor::Tensor& alpha_w,
                             std::int64_t in_channels,
                             std::int64_t out_channels, std::int64_t kk,
                             tensor::Tensor& output) {
  const std::int64_t n = output.dim(0);
  const std::int64_t positions = output.dim(2) * output.dim(3);
  HOTSPOT_CHECK_EQ(patches.rows(), n * positions);
  util::parallel_for(0, n * positions, /*grain=*/32, [&](std::int64_t lo,
                                                         std::int64_t hi) {
    // Per-chunk scratch for the gathered scales; chunks never share it.
    std::vector<float> alpha_row(static_cast<std::size_t>(in_channels));
    for (std::int64_t row = lo; row < hi; ++row) {
      const std::int64_t ni = row / positions;
      const std::int64_t p = row % positions;
      const std::uint64_t* prow = patches.row(row);
      const float* asrc = alpha_t.data() + (ni * in_channels) * positions + p;
      for (std::int64_t ci = 0; ci < in_channels; ++ci) {
        alpha_row[static_cast<std::size_t>(ci)] = asrc[ci * positions];
      }
      float* out_base = output.data() + (ni * out_channels) * positions + p;
      for (std::int64_t co = 0; co < out_channels; ++co) {
        const std::uint64_t* frow = filters.row(co);
        float acc = 0.0f;
        for (std::int64_t ci = 0; ci < in_channels; ++ci) {
          const float term =
              alpha_row[static_cast<std::size_t>(ci)] *
              static_cast<float>(kk - 2 * std::popcount(prow[ci] ^ frow[ci]));
          acc = acc + term;
        }
        out_base[co * positions] = acc * alpha_w[co];
      }
    }
  });
}

}  // namespace hotspot::core
