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

// The even/odd column split of len <= 128 columns: bit i of *even is column
// 2i, bit i of *odd column 2i + 1. SSE2 shuffles eight columns into their
// even and odd halves before each pair of compares.
void sign_parity_words(const float* chunk, std::int64_t len,
                       std::uint64_t* even, std::uint64_t* odd) {
  std::uint64_t e = 0;
  std::uint64_t o = 0;
  std::int64_t i = 0;
#if defined(__SSE2__)
  const __m128 zero = _mm_setzero_ps();
  for (; i + 8 <= len; i += 8) {
    const __m128 lo = _mm_loadu_ps(chunk + i);
    const __m128 hi = _mm_loadu_ps(chunk + i + 4);
    const int even_mask = _mm_movemask_ps(_mm_cmpge_ps(
        _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0)), zero));
    const int odd_mask = _mm_movemask_ps(_mm_cmpge_ps(
        _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1)), zero));
    e |= static_cast<std::uint64_t>(even_mask) << (i >> 1);
    o |= static_cast<std::uint64_t>(odd_mask) << (i >> 1);
  }
#endif
  for (; i + 1 < len; i += 2) {
    e |= std::uint64_t{chunk[i] >= 0.0f} << (i >> 1);
    o |= std::uint64_t{chunk[i + 1] >= 0.0f} << (i >> 1);
  }
  if (i < len) {  // odd width: the last column is even
    e |= std::uint64_t{chunk[i] >= 0.0f} << (i >> 1);
  }
  *even = e;
  *odd = o;
}

// ORs the len <= 64 low bits of `bits` (the rest zero) into stream bits
// [bit, bit + len). The next word is touched only when the bits reach it.
inline void or_bits(std::uint64_t* stream, std::int64_t bit,
                    std::uint64_t bits, std::int64_t len) {
  const std::int64_t word = bit >> 6;
  const int offset = static_cast<int>(bit & 63);
  stream[word] |= bits << offset;
  if (offset + len > 64) {
    stream[word + 1] |= bits >> (64 - offset);
  }
}

}  // namespace

SignStreams::SignStreams(std::int64_t channels, std::int64_t batch,
                         std::int64_t height, std::int64_t width,
                         const tensor::ConvSpec& spec)
    : c_(channels),
      n_(batch),
      h_(height),
      w_(width),
      stride_(spec.stride),
      pad_(spec.pad) {
  HOTSPOT_CHECK(channels >= 0 && batch >= 0 && height > 0 && width > 0);
  HOTSPOT_CHECK(is_same_conv(spec))
      << "sign streams serve same convs: odd kernel, pad = kernel / 2, "
         "stride 1 or 2";
  out_h_ = (h_ + stride_ - 1) / stride_;
  out_w_ = (w_ + stride_ - 1) / stride_;
  words_ = (lanes() + 63) / 64;
  // A tap reads up to ceil(pad / stride) output rows and columns away.
  const std::int64_t reach = (pad_ + stride_ - 1) / stride_ * (out_w_ + 1);
  guard_ = reach / 64 + 1;
  stream_words_ = words_ + 2 * guard_;
  sample_group_ = 64 / std::gcd(out_h_ * out_w_, std::int64_t{64});
  data_.assign(static_cast<std::size_t>(c_ * phases() * stream_words_), 0);
}

void SignStreams::set_rows(std::int64_t c, std::int64_t n, std::int64_t y,
                           std::int64_t count, const float* values) {
  if (stride_ == 1) {
    // The output grid is the input grid: the rows are consecutive lanes.
    std::uint64_t* dst = stream(c, 0);
    const std::int64_t lane = (n * out_h_ + y) * out_w_;
    for (std::int64_t i = 0; i < count * w_; i += 64) {
      const std::int64_t len = std::min<std::int64_t>(64, count * w_ - i);
      or_bits(dst, lane + i, sign_word(values + i, len), len);
    }
    return;
  }
  // Stride 2: row iy feeds phases (iy & 1, 0) with its even columns and
  // (iy & 1, 1) with its odd ones, at output row iy / 2.
  std::uint64_t* const phase[4] = {stream(c, 0), stream(c, 1), stream(c, 2),
                                   stream(c, 3)};
  for (std::int64_t r = 0; r < count; ++r, values += w_) {
    const std::int64_t iy = y + r;
    std::uint64_t* even = phase[(iy & 1) * 2];
    std::uint64_t* odd = phase[(iy & 1) * 2 + 1];
    const std::int64_t lane = (n * out_h_ + (iy >> 1)) * out_w_;
    for (std::int64_t i = 0; i < w_; i += 128) {
      const std::int64_t len = std::min<std::int64_t>(128, w_ - i);
      std::uint64_t e, o;
      sign_parity_words(values + i, len, &e, &o);
      or_bits(even, lane + (i >> 1), e, (len + 1) >> 1);
      or_bits(odd, lane + (i >> 1), o, len >> 1);
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
