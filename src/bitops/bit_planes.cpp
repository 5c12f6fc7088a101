#include "bitops/bit_planes.h"

#include <algorithm>

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

// The column-parity split of len <= 128 columns: bit i of *even is column
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

}  // namespace

BitPlanes::BitPlanes(std::int64_t n, std::int64_t c, std::int64_t h,
                     std::int64_t w, BitLayout layout)
    : layout_(layout), n_(n), c_(c), h_(h), w_(w) {
  HOTSPOT_CHECK(n >= 0 && c >= 0 && h >= 0 && w >= 0);
  // A parity half of a row holds ceil(w / 2) columns at most.
  row_words_ = layout == BitLayout::kColumnParity ? (((w + 1) >> 1) + 63) >> 6
                                                  : (w + 63) >> 6;
  const std::int64_t stored_row =
      layout == BitLayout::kColumnParity ? 2 * row_words_ : row_words_;
  words_.assign(static_cast<std::size_t>(n * c * h * stored_row), 0);
}

BitPlanes::BitPlanes(const tensor::Tensor& input, BitLayout layout)
    : BitPlanes(input.dim(0), input.dim(1), input.dim(2), input.dim(3),
                layout) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  util::parallel_for(0, n_ * c_, /*grain=*/1, [&](std::int64_t lo,
                                                  std::int64_t hi) {
    for (std::int64_t plane = lo; plane < hi; ++plane) {
      set_rows(plane, 0, h_, input.data() + plane * h_ * w_);
    }
  });
}

void BitPlanes::set_rows(std::int64_t plane, std::int64_t y,
                         std::int64_t count, const float* values) {
  if (layout_ == BitLayout::kRows) {
    std::uint64_t* dst = words_.data() + (plane * h_ + y) * row_words_;
    for (std::int64_t r = 0; r < count; ++r, values += w_, dst += row_words_) {
      for (std::int64_t word = 0; word < row_words_; ++word) {
        dst[word] = sign_word(values + word * 64,
                              std::min<std::int64_t>(64, w_ - word * 64));
      }
    }
    return;
  }
  // 128 columns per word pair: even columns to the first half, odd columns
  // to the second.
  std::uint64_t* dst = words_.data() + (plane * h_ + y) * 2 * row_words_;
  for (std::int64_t r = 0; r < count;
       ++r, values += w_, dst += 2 * row_words_) {
    for (std::int64_t word = 0; word < row_words_; ++word) {
      sign_parity_words(values + word * 128,
                        std::min<std::int64_t>(128, w_ - word * 128),
                        &dst[word], &dst[row_words_ + word]);
    }
  }
}

}  // namespace hotspot::bitops
