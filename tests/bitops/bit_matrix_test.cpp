#include "bitops/bit_matrix.h"

#include <gtest/gtest.h>

#include "support/test_support.h"
#include "tensor/tensor_ops.h"

namespace hotspot::bitops {
namespace {

using tensor::Tensor;

TEST(BitMatrix, SetGetRoundTrip) {
  BitMatrix bits(3, 70);  // spans two words per row
  bits.set(1, 0, true);
  bits.set(1, 69, true);
  EXPECT_TRUE(bits.get(1, 0));
  EXPECT_TRUE(bits.get(1, 69));
  EXPECT_FALSE(bits.get(1, 1));
  bits.set(1, 0, false);
  EXPECT_FALSE(bits.get(1, 0));
}

TEST(BitMatrix, WordsPerRowPadding) {
  EXPECT_EQ(BitMatrix(1, 1).words_per_row(), 1);
  EXPECT_EQ(BitMatrix(1, 64).words_per_row(), 1);
  EXPECT_EQ(BitMatrix(1, 65).words_per_row(), 2);
  // Rows are words_per_row() words apart, and storage counts exactly those.
  BitMatrix bits(3, 130);
  EXPECT_EQ(bits.words_per_row(), 3);
  EXPECT_EQ(bits.row(1) - bits.row(0), 3);
  EXPECT_EQ(bits.storage_bytes(), 3 * 3 * 8);
}

TEST(BitMatrix, PackUnpackRoundTrip) {
  util::Rng rng(1);
  const Tensor source = Tensor::normal({4, 100}, rng, 0.0f, 1.0f);
  const BitMatrix packed = BitMatrix::pack_rows(source);
  const Tensor unpacked = packed.unpack();
  for (std::int64_t i = 0; i < source.numel(); ++i) {
    EXPECT_EQ(unpacked[i], source[i] >= 0.0f ? 1.0f : -1.0f);
  }
}

TEST(BitMatrix, PackSignZeroIsPlusOne) {
  const Tensor source({1, 2}, {0.0f, -0.0f});
  const BitMatrix packed = BitMatrix::pack_rows(source);
  EXPECT_TRUE(packed.get(0, 0));
  EXPECT_TRUE(packed.get(0, 1));  // -0.0f >= 0
}

TEST(BitMatrix, TailBitsAreZero) {
  const Tensor source({1, 5}, {1, 1, 1, 1, 1});
  const BitMatrix packed = BitMatrix::pack_rows(source);
  // Bits 5..63 must be zero so a +/-1 dot needs no tail mask.
  EXPECT_EQ(packed.row(0)[0], 0b11111u);
}

// The +/-1 dot of two packed rows (bits - 2 * popcount(a XOR b), the
// contract of bit_matrix.h) equals the float inner product of their signs.
TEST(XnorDot, MatchesFloatInnerProduct) {
  util::Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.uniform_int(1, 200));
    const Tensor a = Tensor::normal({1, n}, rng, 0.0f, 1.0f);
    const Tensor b = Tensor::normal({1, n}, rng, 0.0f, 1.0f);
    const BitMatrix pa = BitMatrix::pack_rows(a);
    const BitMatrix pb = BitMatrix::pack_rows(b);
    const double expected =
        tensor::mul(tensor::sign(a), tensor::sign(b)).sum();
    EXPECT_EQ(test_support::packed_dot(pa.row(0), pb.row(0),
                                       pa.words_per_row(), n),
              static_cast<std::int64_t>(expected));
  }
}

TEST(XnorDot, ExtremeCases) {
  const Tensor ones({1, 64}, 1.0f);
  const Tensor minus = tensor::scale(ones, -1.0f);
  const BitMatrix p = BitMatrix::pack_rows(ones);
  const BitMatrix m = BitMatrix::pack_rows(minus);
  EXPECT_EQ(test_support::packed_dot(p.row(0), p.row(0), 1, 64), 64);
  EXPECT_EQ(test_support::packed_dot(p.row(0), m.row(0), 1, 64), -64);
}

TEST(BitMatrix, StorageIs32xSmallerThanFloat) {
  // The Fig. 1 story: 1-bit weights vs 32-bit floats.
  const std::int64_t rows = 64;
  const std::int64_t cols = 576;
  const BitMatrix bits(rows, cols);
  const auto float_bytes = rows * cols * static_cast<std::int64_t>(sizeof(float));
  EXPECT_LE(bits.storage_bytes() * 30, float_bytes);
}

TEST(BitMatrixDeath, OutOfRangeAccess) {
  BitMatrix bits(2, 10);
  EXPECT_DEATH(bits.get(2, 0), "HOTSPOT_CHECK");
  EXPECT_DEATH(bits.set(0, 10, true), "HOTSPOT_CHECK");
}

}  // namespace
}  // namespace hotspot::bitops
