#include "core/packed_conv.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <numeric>
#include <utility>
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
  std::int64_t in_channels, channel_stride, kernel, taps, lanes, words;
  // Words between the streams of consecutive channels of one phase.
  std::int64_t channel_words;
  // Per tap t = ky*k + kx: the stride phase it reads and its offset, in
  // lanes, on the output grid.
  std::array<std::int64_t, kMaxDirectTaps> phase, shift;
};

// Output coordinates o in [lo, hi) whose input coordinate
// o*stride + k - pad along one axis of `extent` lies inside the image.
std::pair<std::int64_t, std::int64_t> inside(std::int64_t k,
                                             const tensor::ConvSpec& spec,
                                             std::int64_t extent,
                                             std::int64_t out) {
  const std::int64_t lo =
      k < spec.pad ? (spec.pad - k + spec.stride - 1) / spec.stride : 0;
  return {lo, std::min(out, (extent + spec.pad - k + spec.stride - 1) /
                                spec.stride)};
}

// Bits [j, j + len) of a word, len <= 64 - j.
inline std::uint64_t span_bits(std::int64_t j, std::int64_t len) {
  return len >= 64 ? ~std::uint64_t{0}
                   : ((std::uint64_t{1} << len) - 1) << j;
}

// Lanes whose input lies inside the image, per lane word: bit j of
// rows[g * k + ky] is set iff input row oy*stride + ky - pad of lane
// 64g + j is in [0, H), and cols likewise for columns. The masks repeat
// every lcm(outH*outW, 64) lanes, so only the first `period` lane words are
// kept. They are filled one run of lanes in one output row at a time.
struct BorderMasks {
  BorderMasks(const bitops::SignStreams& bits, const tensor::ConvSpec& spec)
      : kernel(spec.kernel_h) {
    const std::int64_t out_h = bits.out_height();
    const std::int64_t out_w = bits.out_width();
    const std::int64_t positions = out_h * out_w;
    period = std::min(bits.words(),
                      positions / std::gcd(positions, std::int64_t{64}));
    rows.assign(static_cast<std::size_t>(period * kernel), 0);
    cols.assign(static_cast<std::size_t>(period * kernel), 0);
    std::array<std::pair<std::int64_t, std::int64_t>, kMaxDirectTaps> row_in,
        col_in;
    for (std::int64_t k = 0; k < kernel; ++k) {
      row_in[k] = inside(k, spec, bits.height(), out_h);
      col_in[k] = inside(k, spec, bits.width(), out_w);
    }
    for (std::int64_t lane = 0; lane < period * 64;) {
      const std::int64_t p = lane % positions;
      const std::int64_t oy = p / out_w;
      const std::int64_t ox = p % out_w;
      const std::int64_t g = lane / 64;
      const std::int64_t j = lane % 64;
      const std::int64_t len = std::min(out_w - ox, 64 - j);
      for (std::int64_t k = 0; k < kernel; ++k) {
        if (row_in[k].first <= oy && oy < row_in[k].second) {
          rows[g * kernel + k] |= span_bits(j, len);
        }
        const std::int64_t lo = std::max(ox, col_in[k].first);
        const std::int64_t hi = std::min(ox + len, col_in[k].second);
        if (lo < hi) {
          cols[g * kernel + k] |= span_bits(j + lo - ox, hi - lo);
        }
      }
      lane += len;
    }
  }

  std::int64_t kernel;
  std::int64_t period;
  std::vector<std::uint64_t> rows, cols;
};

// Tap words of lane words [g0, g1):
// taps[((g - g0) * k*k + t) * channel_stride + c] holds, at bit j, the sign
// bit under tap t = ky*kw + kx of output lane 64g + j in input channel c.
// Each is one funnel shift of the tap's stream, masked to the lanes whose
// input is inside the image; the words of the padding channels are never
// written, so the caller keeps them 0.
void build_taps(const bitops::SignStreams& bits, const LaneGeometry& geo,
                const BorderMasks& masks, std::int64_t g0, std::int64_t g1,
                std::uint64_t* taps) {
  const std::int64_t k = geo.kernel;
  for (std::int64_t g = g0; g < g1; ++g) {
    std::uint64_t* word_taps = taps + (g - g0) * geo.taps * geo.channel_stride;
    const std::uint64_t* rows = masks.rows.data() + g % masks.period * k;
    const std::uint64_t* cols = masks.cols.data() + g % masks.period * k;
    // Lanes past the batch read 0.
    const std::uint64_t live =
        geo.lanes - g * 64 >= 64
            ? ~std::uint64_t{0}
            : (std::uint64_t{1} << (geo.lanes - g * 64)) - 1;
    for (std::int64_t t = 0; t < geo.taps; ++t) {
      const std::uint64_t mask = rows[t / k] & cols[t % k] & live;
      const std::int64_t bit = g * 64 + geo.shift[t];
      const std::int64_t word = bit >> 6;  // floor, into the guard words
      const int offset = static_cast<int>(bit & 63);
      const std::uint64_t* src = bits.stream(0, geo.phase[t]) + word;
      std::uint64_t* dst = word_taps + t * geo.channel_stride;
      for (std::int64_t c = 0; c < geo.in_channels;
           ++c, src += geo.channel_words) {
        // Bits [offset, offset + 64) of src[0..1]; the split shift keeps
        // offset 0 defined.
        dst[c] = ((src[0] >> offset) | ((src[1] << 1) << (63 - offset))) &
                 mask;
      }
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
                 const bitops::SignStreams& bits,
                 const tensor::ConvSpec& spec, const DirectFilters& filters,
                 const float* alpha_lanes, const float* alpha_w,
                 const float* post, std::int64_t first_word,
                 std::int64_t end_word, float* output,
                 std::int64_t row_stride) {
  const std::int64_t cin = bits.channels();
  const std::int64_t cout = filters.out_channels;
  HOTSPOT_CHECK_EQ(filters.in_channels, cin);
  HOTSPOT_CHECK_EQ(filters.taps, spec.kernel_h * spec.kernel_w);
  HOTSPOT_CHECK(bitops::is_same_conv(spec) && spec.stride == bits.stride() &&
                spec.pad == bits.pad())
      << "the direct conv reads streams laid out for its own same conv";
  HOTSPOT_CHECK(0 <= first_word && first_word <= end_word &&
                end_word <= bits.words());
  LaneGeometry geo{};
  geo.in_channels = cin;
  geo.channel_stride = filters.channel_stride;
  geo.kernel = spec.kernel_h;
  geo.taps = filters.taps;
  geo.lanes = bits.lanes();
  geo.words = bits.words();
  geo.channel_words = bits.channel_words();
  for (std::int64_t t = 0; t < geo.taps; ++t) {
    // Input offset d = tap - pad in each axis: at stride 1 that is d output
    // rows or columns; at stride 2 it is phase d & 1, floor(d / 2) away.
    const std::int64_t dy = t / geo.kernel - spec.pad;
    const std::int64_t dx = t % geo.kernel - spec.pad;
    if (spec.stride == 1) {
      geo.phase[t] = 0;
      geo.shift[t] = dy * bits.out_width() + dx;
    } else {
      geo.phase[t] = (dy & 1) * 2 + (dx & 1);
      geo.shift[t] = (dy >> 1) * bits.out_width() + (dx >> 1);
    }
  }
  // kUnitAlpha at stride 0 without per-channel lanes.
  const std::int64_t alpha_stride = alpha_lanes != nullptr ? geo.words * 64 : 0;
  const BorderMasks masks(bits, spec);

  // Lane words per block: the block's tap words (about 32 KB) stay in cache
  // while every filter reads them.
  const std::int64_t block =
      std::max<std::int64_t>(1, 4096 / (geo.taps * geo.channel_stride));
  util::parallel_for(first_word, end_word, block, [&](std::int64_t lo,
                                                      std::int64_t hi) {
    // Per-chunk scratch; chunks never share it. The padding channels' tap
    // words stay 0.
    std::vector<std::uint64_t> taps(static_cast<std::size_t>(
        std::min(block, hi - lo) * geo.taps * geo.channel_stride));
    alignas(64) float partial[64];
    for (std::int64_t g0 = lo; g0 < hi; g0 += block) {
      const std::int64_t g1 = std::min(hi, g0 + block);
      build_taps(bits, geo, masks, g0, g1, taps.data());
      for (std::int64_t o = 0; o < cout; ++o) {
        float* row = output + o * row_stride;
        for (std::int64_t g = g0; g < g1; ++g) {
          // The word's results go straight to their lanes; only a partial
          // last word goes through `partial`.
          const std::int64_t live =
              std::min<std::int64_t>(64, geo.lanes - g * 64);
          float* dst = row + (g - first_word) * 64;
          kern.direct_accumulate(
              taps.data() + (g - g0) * geo.taps * geo.channel_stride,
              filters.bits.data() + o * geo.channel_stride,
              alpha_lanes != nullptr ? alpha_lanes + g * 64
                                     : kUnitAlpha.data(),
              alpha_stride, cin, geo.channel_stride, geo.taps, alpha_w[o],
              live == 64 ? dst : partial);
          if (live < 64) {
            std::memcpy(dst, partial,
                        static_cast<std::size_t>(live) * sizeof(float));
          }
          if (post != nullptr) {
            const float* factor = post + g * 64;
            for (std::int64_t i = 0; i < live; ++i) {
              dst[i] = dst[i] * factor[i];
            }
          }
        }
      }
    }
  });
}

void direct_conv(const bitops::XnorKernel& kern,
                 const bitops::SignStreams& bits,
                 const tensor::ConvSpec& spec, const DirectFilters& filters,
                 const tensor::Tensor* alpha_lanes,
                 const tensor::Tensor& alpha_w, const tensor::Tensor* post,
                 tensor::Tensor& output) {
  HOTSPOT_CHECK_EQ(alpha_w.numel(), filters.out_channels);
  HOTSPOT_CHECK_EQ(output.dim(0), filters.out_channels);
  HOTSPOT_CHECK_EQ(output.dim(1), bits.batch());
  HOTSPOT_CHECK_EQ(output.dim(2), bits.out_height());
  HOTSPOT_CHECK_EQ(output.dim(3), bits.out_width());
  if (alpha_lanes != nullptr) {
    HOTSPOT_CHECK_EQ(alpha_lanes->dim(0), bits.channels());
    HOTSPOT_CHECK_EQ(alpha_lanes->dim(1), bits.words() * 64);
  }
  if (post != nullptr) {
    HOTSPOT_CHECK_EQ(post->numel(), bits.lanes());
  }
  direct_conv(kern, bits, spec, filters,
              alpha_lanes != nullptr ? alpha_lanes->data() : nullptr,
              alpha_w.data(), post != nullptr ? post->data() : nullptr, 0,
              bits.words(), output.data(), bits.lanes());
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
