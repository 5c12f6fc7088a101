#include "bitops/bit_planes.h"

#include <algorithm>
#include <numeric>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/parallel.h"

namespace hotspot::bitops {
namespace {

// Bit i = (chunk[i] >= 0) for i < len <= 64. SSE2 compares four floats per
// instruction; cmpge is false for NaN, like the scalar rule the tail uses.
std::uint64_t sign_word(const float* chunk, std::int64_t len) {
  std::uint64_t bits = 0;
  std::int64_t i = 0;
#if defined(__SSE2__)
  const __m128 zero = _mm_setzero_ps();
  for (; i + 4 <= len; i += 4) {
    const int mask =
        _mm_movemask_ps(_mm_cmpge_ps(_mm_loadu_ps(chunk + i), zero));
    bits |= static_cast<std::uint64_t>(mask) << i;
  }
#endif
  for (; i < len; ++i) {
    bits |= std::uint64_t{chunk[i] >= 0.0f} << i;
  }
  return bits;
}

}  // namespace

SignStreams::SignStreams(std::int64_t channels, std::int64_t batch,
                         std::int64_t height, std::int64_t width,
                         const tensor::ConvSpec& spec)
    : c_(channels), n_(batch), h_(height), w_(width) {
  layout(spec);
  owned_.assign(static_cast<std::size_t>(c_ * channel_words()), 0);
  data_ = owned_.data();
}

SignStreams::SignStreams(std::int64_t channels, std::int64_t batch,
                         std::int64_t height, std::int64_t width,
                         const tensor::ConvSpec& spec, std::uint64_t* storage)
    : c_(channels), n_(batch), h_(height), w_(width), data_(storage) {
  layout(spec);
  for (std::int64_t s = 0; s < c_ * phases_; ++s) {
    std::uint64_t* first = data_ + s * stream_words_;
    std::fill(first, first + guard_, 0);
    std::fill(first + guard_ + words_, first + stream_words_, 0);
  }
}

std::int64_t SignStreams::storage_words(std::int64_t channels,
                                        std::int64_t batch,
                                        std::int64_t height,
                                        std::int64_t width,
                                        const tensor::ConvSpec& spec) {
  SignStreams shape;
  shape.c_ = channels;
  shape.n_ = batch;
  shape.h_ = height;
  shape.w_ = width;
  shape.layout(spec);
  return channels * shape.channel_words();
}

void SignStreams::layout(const tensor::ConvSpec& spec) {
  HOTSPOT_CHECK(c_ >= 0 && n_ >= 0 && h_ > 0 && w_ > 0);
  HOTSPOT_CHECK(is_same_conv(spec))
      << "sign streams serve same convs: odd kernel, pad = kernel / 2, "
         "stride 1 or 2";
  stride_ = spec.stride;
  pad_ = spec.pad;
  // A 1x1 conv (pad 0) reads only phase (0, 0).
  phases_ = pad_ == 0 ? 1 : stride_ * stride_;
  out_h_ = (h_ + stride_ - 1) / stride_;
  out_w_ = (w_ + stride_ - 1) / stride_;
  words_ = (lanes() + 63) / 64;
  // A tap reads up to ceil(pad / stride) output rows and columns away.
  const std::int64_t reach = (pad_ + stride_ - 1) / stride_ * (out_w_ + 1);
  guard_ = reach / 64 + 1;
  stream_words_ = words_ + 2 * guard_;
  sample_group_ = 64 / std::gcd(out_h_ * out_w_, std::int64_t{64});
}

void SignStreams::set_samples(std::int64_t c, std::int64_t n0,
                              std::int64_t count, const float* values) {
  HOTSPOT_CHECK(n0 % sample_group_ == 0 &&
                (count % sample_group_ == 0 || n0 + count == n_))
      << "sign stream writes own whole groups of samples";
  const std::int64_t first_word = n0 * out_h_ * out_w_ / 64;
  const std::int64_t block = count * out_h_ * out_w_;
  for (std::int64_t phase = 0; phase < phases_; ++phase, values += block) {
    std::uint64_t* dst = stream(c, phase) + first_word;
    for (std::int64_t i = 0; i < block; i += 64) {
      dst[i >> 6] =
          sign_word(values + i, std::min<std::int64_t>(64, block - i));
    }
  }
}

BitPlanes::BitPlanes(const tensor::Tensor& input) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  n_ = input.dim(0);
  c_ = input.dim(1);
  h_ = input.dim(2);
  w_ = input.dim(3);
  row_words_ = (w_ + 63) >> 6;
  words_.assign(static_cast<std::size_t>(n_ * c_ * h_ * row_words_), 0);
  util::parallel_for(0, n_ * c_, /*grain=*/1, [&](std::int64_t lo,
                                                  std::int64_t hi) {
    for (std::int64_t row = lo * h_; row < hi * h_; ++row) {
      const float* values = input.data() + row * w_;
      std::uint64_t* dst = words_.data() + row * row_words_;
      for (std::int64_t word = 0; word < row_words_; ++word) {
        dst[word] = sign_word(values + word * 64,
                              std::min<std::int64_t>(64, w_ - word * 64));
      }
    }
  });
}

}  // namespace hotspot::bitops
