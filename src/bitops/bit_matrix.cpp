#include "bitops/bit_matrix.h"

#include <algorithm>

#include "util/check.h"

namespace hotspot::bitops {

BitMatrix::BitMatrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows), cols_(cols), words_per_row_((cols + 63) / 64) {
  HOTSPOT_CHECK_GE(rows, 0);
  HOTSPOT_CHECK_GE(cols, 0);
  words_.assign(static_cast<std::size_t>(rows * words_per_row_), 0);
}

BitMatrix BitMatrix::pack_rows(const tensor::Tensor& source) {
  HOTSPOT_CHECK_EQ(source.rank(), 2);
  BitMatrix packed(source.dim(0), source.dim(1));
  const std::int64_t cols = packed.cols_;
  for (std::int64_t r = 0; r < packed.rows_; ++r) {
    std::uint64_t* words = packed.row(r);
    const float* values = source.data() + r * cols;
    // Accumulate each word in a register; per-bit |= to memory would cost a
    // store-load dependency per element.
    for (std::int64_t base = 0; base < cols; base += 64) {
      const std::int64_t chunk = std::min<std::int64_t>(64, cols - base);
      std::uint64_t word = 0;
      for (std::int64_t b = 0; b < chunk; ++b) {
        word |= static_cast<std::uint64_t>(values[base + b] >= 0.0f) << b;
      }
      words[base >> 6] = word;
    }
  }
  return packed;
}

void BitMatrix::set(std::int64_t r, std::int64_t c, bool bit) {
  HOTSPOT_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_)
      << "bit index (" << r << ", " << c << ") out of range";
  std::uint64_t& word = row(r)[c >> 6];
  const std::uint64_t mask = std::uint64_t{1} << (c & 63);
  word = bit ? (word | mask) : (word & ~mask);
}

bool BitMatrix::get(std::int64_t r, std::int64_t c) const {
  HOTSPOT_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_)
      << "bit index (" << r << ", " << c << ") out of range";
  return (row(r)[c >> 6] >> (c & 63)) & 1;
}

tensor::Tensor BitMatrix::unpack() const {
  tensor::Tensor out({rows_, cols_});
  for (std::int64_t r = 0; r < rows_; ++r) {
    const std::uint64_t* words = row(r);
    for (std::int64_t c = 0; c < cols_; ++c) {
      out.at2(r, c) = ((words[c >> 6] >> (c & 63)) & 1) ? 1.0f : -1.0f;
    }
  }
  return out;
}

}  // namespace hotspot::bitops
