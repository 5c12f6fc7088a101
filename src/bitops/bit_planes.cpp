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
  row_words_ = (w_ + 63) >> 6;
  words_.assign(static_cast<std::size_t>(n_ * c_ * h_ * row_words_), 0);
  util::parallel_for(0, n_ * c_, /*grain=*/1, [&](std::int64_t lo,
                                                  std::int64_t hi) {
    for (std::int64_t plane = lo; plane < hi; ++plane) {
      const float* src = input.data() + plane * h_ * w_;
      std::uint64_t* dst = words_.data() + plane * h_ * row_words_;
      // The channel's rule is built once, outside the pixel loop, and each
      // word is assembled in a register and stored once.
      const auto bit = rule_for(plane % c_);
      for (std::int64_t y = 0; y < h_; ++y, src += w_, dst += row_words_) {
        for (std::int64_t word = 0; word < row_words_; ++word) {
          const float* chunk = src + word * 64;
          const std::int64_t len = std::min<std::int64_t>(64, w_ - word * 64);
          std::uint64_t bits = 0;
          for (std::int64_t i = 0; i < len; ++i) {
            bits |= std::uint64_t{bit(chunk[i])} << i;
          }
          dst[word] = bits;
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
                     const ChannelAffine& affine) {
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
