// Per-(sample, channel) activation bit planes.
//
// A BitPlanes holds one bitmap row per (n*C + c, y) of an NCHW tensor with
// bit x describing input[n,c,y,x]; bits at x >= W are zero. The direct
// binary conv (core/packed_conv.h) cuts its tap words from these bitmaps
// with shifts instead of kh*kw float loads per output position, so every
// input float is read exactly once during packing.
//
// Stride-2 convs ask for the column-parity layout instead: each bitmap row
// is stored as its even columns (bit i = column 2i) followed by its odd
// columns (bit i = column 2i + 1), so the taps of every second output
// column are contiguous bits.
// Both layouts are written by the same row packer, set_rows, with the sign
// rule bit = (v >= 0), matching tensor::sign (sign(0) = +1; NaN -> 0). The
// inference plan binarizes BN -> Binarize through bitops::conv_input
// (scaling.h), which evaluates the BN output a few rows at a time and hands
// each block of rows to set_rows, so its bits equal
// BitPlanes(BatchNorm2d eval forward(x)) without materializing the BN
// tensor.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace hotspot::bitops {

enum class BitLayout { kRows, kColumnParity };

class BitPlanes {
 public:
  BitPlanes() = default;

  // All-zero planes for an [n, c, h, w] tensor; set_rows fills them.
  BitPlanes(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w,
            BitLayout layout);

  // bit = (v >= 0) for every element of the rank-4 `input`.
  explicit BitPlanes(const tensor::Tensor& input,
                     BitLayout layout = BitLayout::kRows);

  // Sets bitmap rows [y, y + count) of plane (n*channels + c) from the
  // count * width() floats at `values` (row after row), bit = (v >= 0), in
  // this planes' layout; every stored word of those rows is written, so
  // bits past the width stay zero. Calls on distinct rows touch distinct
  // words and may run concurrently.
  void set_rows(std::int64_t plane, std::int64_t y, std::int64_t count,
                const float* values);

  std::int64_t batch() const { return n_; }
  std::int64_t channels() const { return c_; }
  std::int64_t height() const { return h_; }
  std::int64_t width() const { return w_; }
  BitLayout layout() const { return layout_; }
  // Words per stored row: a full row (kRows) or one parity half
  // (kColumnParity, ceil(ceil(width / 2) / 64) words each).
  std::int64_t row_words() const { return row_words_; }

  // Bitmap row y of plane (n*channels + c); kRows only, caller guarantees
  // bounds.
  const std::uint64_t* row(std::int64_t plane, std::int64_t y) const {
    return words_.data() + (plane * h_ + y) * row_words_;
  }

  // Even (parity 0) or odd (parity 1) columns of bitmap row y of plane
  // (n*channels + c); kColumnParity only.
  const std::uint64_t* parity_row(std::int64_t plane, std::int64_t y,
                                  std::int64_t parity) const {
    return words_.data() + ((plane * h_ + y) * 2 + parity) * row_words_;
  }

  bool get(std::int64_t n, std::int64_t c, std::int64_t y,
           std::int64_t x) const {
    const std::int64_t plane = n * c_ + c;
    if (layout_ == BitLayout::kColumnParity) {
      return (parity_row(plane, y, x & 1)[(x >> 1) >> 6] >> ((x >> 1) & 63)) &
             1u;
    }
    return (row(plane, y)[x >> 6] >> (x & 63)) & 1u;
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
  BitLayout layout_ = BitLayout::kRows;
  std::int64_t n_ = 0;
  std::int64_t c_ = 0;
  std::int64_t h_ = 0;
  std::int64_t w_ = 0;
  std::int64_t row_words_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace hotspot::bitops
