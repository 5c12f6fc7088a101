// Per-(sample, channel) activation bit planes.
//
// A BitPlanes holds one bitmap row per (n*C + c, y) of an NCHW tensor with
// bit x describing input[n,c,y,x]; bits at x >= W are zero. The packers in
// xnor_gemm.h assemble conv patch words from these bitmaps with shifts
// instead of kh*kw float loads per output position, so every input float is
// read exactly once during packing.
//
// Both constructors binarize with the sign rule bit = (v >= 0), matching
// tensor::sign (sign(0) = +1). The affine one applies it to the batch-norm
// output bn_eval(x) (channel_affine.h), evaluated inline from the raw
// input: this is how the inference plan binarizes BN -> Binarize without
// materializing the BN tensor, with the same bits as
// BitPlanes(BatchNorm2d eval forward(x)).
#pragma once

#include <cstdint>
#include <vector>

#include "bitops/channel_affine.h"
#include "tensor/tensor.h"

namespace hotspot::bitops {

class BitPlanes {
 public:
  BitPlanes() = default;

  // bit = (v >= 0).
  explicit BitPlanes(const tensor::Tensor& input);

  // bit = (bn_eval(v) >= 0) with channel c's parameters from `affine`
  // (arrays sized to input.dim(1)).
  BitPlanes(const tensor::Tensor& input, const ChannelAffine& affine);

  std::int64_t batch() const { return n_; }
  std::int64_t channels() const { return c_; }
  std::int64_t height() const { return h_; }
  std::int64_t width() const { return w_; }
  std::int64_t row_words() const { return row_words_; }

  // Bitmap row y of plane (n*channels + c); caller guarantees bounds.
  const std::uint64_t* row(std::int64_t plane, std::int64_t y) const {
    return words_.data() + (plane * h_ + y) * row_words_;
  }

  bool get(std::int64_t n, std::int64_t c, std::int64_t y,
           std::int64_t x) const {
    return (row(n * c_ + c, y)[x >> 6] >> (x & 63)) & 1u;
  }

  // kw bits of bitmap row `bm` starting at column ix0 (bit i = column
  // ix0 + i); columns outside [0, w) read as zero (padding is -1 -> bit 0).
  // Requires -64 < ix0 < w (the conv window overlaps the image, pad < 64).
  std::uint64_t window_bits(const std::uint64_t* bm, std::int64_t ix0,
                            std::int64_t kw) const {
    std::uint64_t v;
    if (ix0 >= 0) {
      const std::int64_t wi = ix0 >> 6;
      const int off = static_cast<int>(ix0 & 63);
      v = bm[wi] >> off;
      if (off != 0 && wi + 1 < row_words_) {
        v |= bm[wi + 1] << (64 - off);
      }
    } else {
      v = bm[0] << -ix0;  // low -ix0 bits are left-padding zeros
    }
    return kw < 64 ? v & ((std::uint64_t{1} << kw) - 1) : v;
  }

 private:
  // Sizes the planes to `input` and sets bit = rule_for(c)(v) for every
  // element v of channel c.
  template <typename RuleFor>
  void binarize(const tensor::Tensor& input, RuleFor rule_for);

  std::int64_t n_ = 0;
  std::int64_t c_ = 0;
  std::int64_t h_ = 0;
  std::int64_t w_ = 0;
  std::int64_t row_words_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace hotspot::bitops
