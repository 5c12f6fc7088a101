// Scalar reference kernel: one lane word per step, lane counts spread to
// bytes through a table.
//
// This is the always-available fallback and the bit-exactness reference for
// the SIMD kernels, so the canonical weighted order (xnor_kernel.h) is
// spelled out here in its plainest form. Compiled with -ffp-contract=off
// (src/bitops/CMakeLists.txt) so the multiply-add stays two rounded
// operations, matching the vector kernels' explicit mul + add.
#include <array>
#include <cstring>

#include "bitops/kernels/xnor_kernel.h"

namespace hotspot::bitops {
namespace {

// Byte i of kSpread[b] is bit i of b: eight lanes of a bit-plane as bytes.
constexpr auto kSpread = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::uint64_t b = 0; b < 256; ++b) {
    for (int i = 0; i < 8; ++i) {
      table[b] |= ((b >> i) & 1u) << (8 * i);
    }
  }
  return table;
}();

inline void full_add(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                     std::uint64_t& sum, std::uint64_t& carry) {
  const std::uint64_t t = a ^ b;
  sum = t ^ c;
  carry = (a & b) | (t & c);
}

// Mismatch-count bit-planes of one channel: XNOR every tap word with its
// weight bit, then a carry-save adder tree for 3x3 kernels or a ripple
// counter for any other tap count.
void count_planes(const std::uint64_t* taps, std::uint16_t weight,
                  std::int64_t channel_stride, std::int64_t ntaps,
                  std::uint64_t planes[4]) {
  auto tap = [&](std::int64_t t) {
    return taps[t * channel_stride] ^
           (std::uint64_t{0} - ((weight >> t) & 1u));
  };
  if (ntaps == 9) {
    std::uint64_t s0, s1, s2, c0, c1, c2, c3, s4, c4;
    full_add(tap(0), tap(1), tap(2), s0, c0);  // weight 1 -> 1, 2
    full_add(tap(3), tap(4), tap(5), s1, c1);
    full_add(tap(6), tap(7), tap(8), s2, c2);
    full_add(s0, s1, s2, planes[0], c3);
    full_add(c0, c1, c2, s4, c4);  // weight 2 -> 2, 4
    planes[1] = s4 ^ c3;
    const std::uint64_t c5 = s4 & c3;
    planes[2] = c4 ^ c5;  // weight 4 -> 4, 8
    planes[3] = c4 & c5;
    return;
  }
  planes[0] = planes[1] = planes[2] = planes[3] = 0;
  for (std::int64_t t = 0; t < ntaps; ++t) {
    std::uint64_t carry = tap(t);
    for (int b = 0; b < 4; ++b) {
      const std::uint64_t sum = planes[b] ^ carry;
      carry &= planes[b];
      planes[b] = sum;
    }
  }
}

void scalar_direct_accumulate(const std::uint64_t* taps,
                              const std::uint16_t* weights,
                              const float* alpha, std::int64_t alpha_stride,
                              std::int64_t channels,
                              std::int64_t channel_stride, std::int64_t ntaps,
                              float scale, float out[64]) {
  // Canonical weighted order: one accumulator per lane, channels
  // ascending, an explicit multiply then add per channel.
  float acc[64];
  for (int j = 0; j < 64; ++j) {
    acc[j] = 0.0f;
  }
  for (std::int64_t c = 0; c < channels; ++c) {
    std::uint64_t planes[4];
    count_planes(taps + c, weights[c], channel_stride, ntaps, planes);
    // Per-lane counts as bytes, eight lanes per word.
    std::uint8_t count[64];
    for (int q = 0; q < 8; ++q) {
      std::uint64_t bytes = 0;
      for (int b = 0; b < 4; ++b) {
        bytes |= kSpread[(planes[b] >> (8 * q)) & 0xFFu] << b;
      }
      std::memcpy(count + 8 * q, &bytes, sizeof(bytes));
    }
    // In int32, so the lane loop vectorizes (there is no packed
    // int64 -> float conversion below AVX-512).
    const float* a = alpha + c * alpha_stride;
    const auto taps32 = static_cast<std::int32_t>(ntaps);
    for (int j = 0; j < 64; ++j) {
      acc[j] = acc[j] + a[j] * static_cast<float>(taps32 - 2 * count[j]);
    }
  }
  for (int j = 0; j < 64; ++j) {
    out[j] = acc[j] * scale;
  }
}

}  // namespace

const XnorKernel& xnor_kernel_scalar() {
  static const XnorKernel kernel{"scalar", /*simd_bits=*/64,
                                 scalar_direct_accumulate};
  return kernel;
}

}  // namespace hotspot::bitops
