// Bit-packed {-1,+1} matrices.
//
// A BitMatrix stores one bit per element (+1 -> 1, -1 -> 0), rows padded to
// 64-bit word boundaries with zero tail bits and stored words_per_row()
// words apart. The +/-1 inner product of two rows is then
// n - 2*popcount(a XOR b): equal tail bits cancel, so rows can be compared
// word-by-word without masking as long as both tails are zero, which the
// class guarantees.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace hotspot::bitops {

class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::int64_t rows, std::int64_t cols);

  // Packs a rank-2 float tensor: bit = 1 iff value >= 0 (sign(0) = +1,
  // matching tensor::sign).
  static BitMatrix pack_rows(const tensor::Tensor& source);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  // Words per row: ceil(cols / 64); rows are this many words apart.
  std::int64_t words_per_row() const { return words_per_row_; }

  const std::uint64_t* row(std::int64_t r) const {
    return words_.data() + r * words_per_row_;
  }
  std::uint64_t* row(std::int64_t r) {
    return words_.data() + r * words_per_row_;
  }

  void set(std::int64_t r, std::int64_t c, bool bit);
  bool get(std::int64_t r, std::int64_t c) const;

  // Unpacks back to a float tensor of {-1,+1}; inverse of pack_rows.
  tensor::Tensor unpack() const;

  // Storage in bytes (for the Fig.-1 model-size comparison):
  // rows * ceil(cols/64) words.
  std::int64_t storage_bytes() const {
    return static_cast<std::int64_t>(rows_ * words_per_row_ *
                                     static_cast<std::int64_t>(
                                         sizeof(std::uint64_t)));
  }

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace hotspot::bitops
