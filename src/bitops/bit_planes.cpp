#include "bitops/bit_planes.h"

#include <algorithm>

#include "util/parallel.h"

namespace hotspot::bitops {

template <typename RuleFor>
void BitPlanes::binarize(const tensor::Tensor& input, RuleFor rule_for) {
  HOTSPOT_CHECK_EQ(input.rank(), 4);
  n_ = input.dim(0);
  c_ = input.dim(1);
  h_ = input.dim(2);
  w_ = input.dim(3);
  const bool parity = layout_ == BitLayout::kColumnParity;
  // A parity half of a row holds ceil(w / 2) columns at most.
  row_words_ = parity ? (((w_ + 1) >> 1) + 63) >> 6 : (w_ + 63) >> 6;
  const std::int64_t stored_row = parity ? 2 * row_words_ : row_words_;
  words_.assign(static_cast<std::size_t>(n_ * c_ * h_ * stored_row), 0);
  util::parallel_for(0, n_ * c_, /*grain=*/1, [&](std::int64_t lo,
                                                  std::int64_t hi) {
    for (std::int64_t plane = lo; plane < hi; ++plane) {
      const float* src = input.data() + plane * h_ * w_;
      std::uint64_t* dst = words_.data() + plane * h_ * stored_row;
      // The channel's rule is built once, outside the pixel loop, and each
      // word is assembled in a register and stored once.
      const auto bit = rule_for(plane % c_);
      for (std::int64_t y = 0; y < h_; ++y, src += w_, dst += stored_row) {
        if (!parity) {
          for (std::int64_t word = 0; word < row_words_; ++word) {
            const float* chunk = src + word * 64;
            const std::int64_t len =
                std::min<std::int64_t>(64, w_ - word * 64);
            std::uint64_t bits = 0;
            for (std::int64_t i = 0; i < len; ++i) {
              bits |= std::uint64_t{bit(chunk[i])} << i;
            }
            dst[word] = bits;
          }
          continue;
        }
        // 128 columns per word pair: even columns to the first half, odd
        // columns to the second.
        for (std::int64_t word = 0; word < row_words_; ++word) {
          const float* chunk = src + word * 128;
          const std::int64_t len =
              std::min<std::int64_t>(128, w_ - word * 128);
          std::uint64_t even = 0;
          std::uint64_t odd = 0;
          std::int64_t i = 0;
          for (; i + 1 < len; i += 2) {
            even |= std::uint64_t{bit(chunk[i])} << (i >> 1);
            odd |= std::uint64_t{bit(chunk[i + 1])} << (i >> 1);
          }
          if (i < len) {  // odd width: the last column is even
            even |= std::uint64_t{bit(chunk[i])} << (i >> 1);
          }
          dst[word] = even;
          dst[row_words_ + word] = odd;
        }
      }
    }
  });
}

BitPlanes::BitPlanes(const tensor::Tensor& input) {
  binarize(input,
           [](std::int64_t) { return [](float v) { return v >= 0.0f; }; });
}

BitPlanes::BitPlanes(const tensor::Tensor& input,
                     const ChannelAffine& affine, BitLayout layout)
    : layout_(layout) {
  binarize(input, [&affine](std::int64_t c) {
    const float mean = affine.mean[c];
    const float inv_std = affine.inv_std[c];
    const float gamma = affine.gamma[c];
    const float beta = affine.beta[c];
    return [=](float v) {
      return bn_eval(v, mean, inv_std, gamma, beta) >= 0.0f;
    };
  });
}

}  // namespace hotspot::bitops
