// AVX-512 kernel: the direct conv's XNOR and ternary-logic adder tree
// eight channels per 512-bit register, the float multiply-add sixteen
// lanes per register. Requires AVX512F only (no popcount instruction);
// kernels/dispatch.cpp checks it before this kernel is ever called.
// Compiled with -mavx512f on this file only.
//
// Bit-exactness: the counts are exact integers; direct_accumulate realizes
// the canonical position-major order of xnor_kernel.h: each count bit-plane
// is a lane mask, the per-lane value is built by exact masked subtractions,
// and each channel adds with an explicit mul + add (-ffp-contract=off).
#include "bitops/kernels/xnor_kernel.h"

#if defined(HOTSPOT_XNOR_AVX512)

#include <immintrin.h>

namespace hotspot::bitops {
namespace {

inline __m512i load512(const std::uint64_t* p) {
  return _mm512_loadu_si512(static_cast<const void*>(p));
}

// Full adder over eight lane words at once.
inline void full_add(__m512i a, __m512i b, __m512i c, __m512i& sum,
                     __m512i& carry) {
  sum = _mm512_ternarylogic_epi64(a, b, c, 0x96);    // a ^ b ^ c
  carry = _mm512_ternarylogic_epi64(a, b, c, 0xE8);  // majority
}

// Mismatch-count bit-planes of channels c0..c0+7 (one channel per 64-bit
// element): XNOR every tap word with its weight bit, then a carry-save
// adder tree for 3x3 kernels or a ripple counter for any other tap count.
inline void count_planes(const std::uint64_t* taps,
                         const std::uint16_t* weights,
                         std::int64_t channel_stride, std::int64_t ntaps,
                         __m512i planes[4]) {
  // The zero-masked form: GCC 12's unmasked one warns about its own
  // undefined source register.
  const __m512i w = _mm512_maskz_cvtepu16_epi64(
      0xFF, _mm_loadu_si128(reinterpret_cast<const __m128i*>(weights)));
  const __m512i ones = _mm512_set1_epi64(-1);
  auto tap = [&](std::int64_t t) {
    const __m512i word = load512(taps + t * channel_stride);
    const __mmask8 flip =
        _mm512_test_epi64_mask(w, _mm512_set1_epi64(std::int64_t{1} << t));
    return _mm512_mask_xor_epi64(word, flip, word, ones);
  };
  if (ntaps == 9) {
    __m512i s0, s1, s2, c0, c1, c2, c3, s4, c4;
    full_add(tap(0), tap(1), tap(2), s0, c0);  // weight 1 -> 1, 2
    full_add(tap(3), tap(4), tap(5), s1, c1);
    full_add(tap(6), tap(7), tap(8), s2, c2);
    full_add(s0, s1, s2, planes[0], c3);
    full_add(c0, c1, c2, s4, c4);  // weight 2 -> 2, 4
    planes[1] = _mm512_xor_si512(s4, c3);
    const __m512i c5 = _mm512_and_si512(s4, c3);
    planes[2] = _mm512_xor_si512(c4, c5);  // weight 4 -> 4, 8
    planes[3] = _mm512_and_si512(c4, c5);
    return;
  }
  for (int b = 0; b < 4; ++b) {
    planes[b] = _mm512_setzero_si512();
  }
  for (std::int64_t t = 0; t < ntaps; ++t) {
    __m512i carry = tap(t);
    for (int b = 0; b < 4; ++b) {
      const __m512i sum = _mm512_xor_si512(planes[b], carry);
      carry = _mm512_and_si512(planes[b], carry);
      planes[b] = sum;
    }
  }
}

void avx512_direct_accumulate(const std::uint64_t* taps,
                              const std::uint16_t* weights,
                              const float* alpha, std::int64_t alpha_stride,
                              std::int64_t channels,
                              std::int64_t channel_stride, std::int64_t ntaps,
                              float scale, float out[64]) {
  const __m512 base = _mm512_set1_ps(static_cast<float>(ntaps));
  // 2 * 2^b for count plane b.
  const __m512 step[4] = {_mm512_set1_ps(2.0f), _mm512_set1_ps(4.0f),
                          _mm512_set1_ps(8.0f), _mm512_set1_ps(16.0f)};
  __m512 acc[4];
  for (int q = 0; q < 4; ++q) {
    acc[q] = _mm512_setzero_ps();
  }
  // Count planes of eight channels, stored as lane masks:
  // masks[b][i][q] covers lanes 16q..16q+15 of plane b of channel c0 + i.
  alignas(64) __mmask16 masks[4][8][4];
  for (std::int64_t c0 = 0; c0 < channels; c0 += 8) {
    __m512i planes[4];
    count_planes(taps + c0, weights + c0, channel_stride, ntaps, planes);
    for (int b = 0; b < 4; ++b) {
      _mm512_store_si512(masks[b], planes[b]);
    }
    const std::int64_t block = channels - c0 < 8 ? channels - c0 : 8;
    for (std::int64_t i = 0; i < block; ++i) {
      const float* a = alpha + (c0 + i) * alpha_stride;
      for (int q = 0; q < 4; ++q) {
        // ntaps - 2 * count by subtracting 2 * 2^b where plane b is set:
        // small integers, exact in float.
        __m512 value = base;
        for (int b = 0; b < 4; ++b) {
          value = _mm512_mask_sub_ps(value, masks[b][i][q], value, step[b]);
        }
        acc[q] = _mm512_add_ps(
            acc[q], _mm512_mul_ps(_mm512_loadu_ps(a + 16 * q), value));
      }
    }
  }
  const __m512 scalev = _mm512_set1_ps(scale);
  for (int q = 0; q < 4; ++q) {
    _mm512_storeu_ps(out + 16 * q, _mm512_mul_ps(acc[q], scalev));
  }
}

}  // namespace

const XnorKernel& xnor_kernel_avx512() {
  static const XnorKernel kernel{"avx512", /*simd_bits=*/512,
                                 avx512_direct_accumulate};
  return kernel;
}

}  // namespace hotspot::bitops

#endif  // HOTSPOT_XNOR_AVX512
