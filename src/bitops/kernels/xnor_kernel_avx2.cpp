// AVX2 kernel: the direct conv's XNOR and carry-save adder tree four
// channels per 256-bit register, the per-lane counts and the float
// multiply-add eight lanes per register. Compiled with -mavx2 on its own
// (this file only); never executed unless cpuid reports AVX2
// (kernels/dispatch.cpp), so the rest of the binary stays portable.
//
// Bit-exactness: the counts are exact integers; direct_accumulate realizes
// the canonical position-major order of xnor_kernel.h, with one vector
// multiply + add per channel (-ffp-contract=off keeps them two rounded
// operations).
#include "bitops/kernels/xnor_kernel.h"

#if defined(HOTSPOT_XNOR_AVX2)

#include <immintrin.h>

namespace hotspot::bitops {
namespace {

inline __m256i load256(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void full_add(__m256i a, __m256i b, __m256i c, __m256i& sum,
                     __m256i& carry) {
  const __m256i t = _mm256_xor_si256(a, b);
  sum = _mm256_xor_si256(t, c);
  carry = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(t, c));
}

// Mismatch-count bit-planes of channels c0..c0+3 (one channel per 64-bit
// element): XNOR every tap word with its weight bit, then a carry-save
// adder tree for 3x3 kernels or a ripple counter for any other tap count.
inline void count_planes(const std::uint64_t* taps,
                         const std::uint16_t* weights,
                         std::int64_t channel_stride, std::int64_t ntaps,
                         __m256i planes[4]) {
  const __m256i w = _mm256_cvtepu16_epi64(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(weights)));
  auto tap = [&](std::int64_t t) {
    const __m256i bit = _mm256_set1_epi64x(std::int64_t{1} << t);
    const __m256i flip = _mm256_cmpeq_epi64(_mm256_and_si256(w, bit), bit);
    return _mm256_xor_si256(load256(taps + t * channel_stride), flip);
  };
  if (ntaps == 9) {
    __m256i s0, s1, s2, c0, c1, c2, c3, s4, c4;
    full_add(tap(0), tap(1), tap(2), s0, c0);  // weight 1 -> 1, 2
    full_add(tap(3), tap(4), tap(5), s1, c1);
    full_add(tap(6), tap(7), tap(8), s2, c2);
    full_add(s0, s1, s2, planes[0], c3);
    full_add(c0, c1, c2, s4, c4);  // weight 2 -> 2, 4
    planes[1] = _mm256_xor_si256(s4, c3);
    const __m256i c5 = _mm256_and_si256(s4, c3);
    planes[2] = _mm256_xor_si256(c4, c5);  // weight 4 -> 4, 8
    planes[3] = _mm256_and_si256(c4, c5);
    return;
  }
  for (int b = 0; b < 4; ++b) {
    planes[b] = _mm256_setzero_si256();
  }
  for (std::int64_t t = 0; t < ntaps; ++t) {
    __m256i carry = tap(t);
    for (int b = 0; b < 4; ++b) {
      const __m256i sum = _mm256_xor_si256(planes[b], carry);
      carry = _mm256_and_si256(planes[b], carry);
      planes[b] = sum;
    }
  }
}

// Byte q of the four count planes of one channel (element b = plane b),
// gathered into dword q (byte b = plane b) for q = 0..7: lanes 8q..8q+7.
inline __m256i transpose_planes(__m256i planes) {
  // Per 128-bit half: interleave the bytes of its two planes, so word q
  // holds byte q of both.
  const __m256i interleave = _mm256_setr_epi8(
      0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15,  //
      0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15);
  // After the cross-half qword permute, pair word q of planes 0/1 with word
  // q of planes 2/3.
  const __m256i pair = _mm256_setr_epi8(
      0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15,  //
      0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15);
  const __m256i words = _mm256_shuffle_epi8(planes, interleave);
  return _mm256_shuffle_epi8(
      _mm256_permute4x64_epi64(words, _MM_SHUFFLE(3, 1, 2, 0)), pair);
}

void avx2_direct_accumulate(const std::uint64_t* taps,
                            const std::uint16_t* weights, const float* alpha,
                            std::int64_t alpha_stride, std::int64_t channels,
                            std::int64_t channel_stride, std::int64_t ntaps,
                            float scale, float out[64]) {
  // Lane i of a group shifts its dword right by i, so bit 0 of byte b is
  // that lane's bit of plane b; maddubs + madd weight the bytes by
  // -2, -4, -8, -16, giving -2 * count as an exact int32.
  const __m256i lane_shift = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i low_bits = _mm256_set1_epi32(0x01010101);
  const __m256i weights_m2 = _mm256_set1_epi32(static_cast<int>(0xF0F8FCFEu));
  const __m256i ones = _mm256_set1_epi16(1);
  const __m256 base = _mm256_set1_ps(static_cast<float>(ntaps));
  __m256 acc[8];
  for (int q = 0; q < 8; ++q) {
    acc[q] = _mm256_setzero_ps();
  }
  for (std::int64_t c0 = 0; c0 < channels; c0 += 4) {
    __m256i planes[4];
    count_planes(taps + c0, weights + c0, channel_stride, ntaps, planes);
    // 4x4 transpose of 64-bit elements: channel i's four planes in one
    // register.
    const __m256i t0 = _mm256_unpacklo_epi64(planes[0], planes[1]);
    const __m256i t1 = _mm256_unpackhi_epi64(planes[0], planes[1]);
    const __m256i t2 = _mm256_unpacklo_epi64(planes[2], planes[3]);
    const __m256i t3 = _mm256_unpackhi_epi64(planes[2], planes[3]);
    const __m256i by_channel[4] = {_mm256_permute2x128_si256(t0, t2, 0x20),
                                   _mm256_permute2x128_si256(t1, t3, 0x20),
                                   _mm256_permute2x128_si256(t0, t2, 0x31),
                                   _mm256_permute2x128_si256(t1, t3, 0x31)};
    const std::int64_t block = channels - c0 < 4 ? channels - c0 : 4;
    for (std::int64_t i = 0; i < block; ++i) {
      const __m256i bytes = transpose_planes(by_channel[i]);
      const float* a = alpha + (c0 + i) * alpha_stride;
      for (int q = 0; q < 8; ++q) {
        const __m256i group =
            _mm256_permutevar8x32_epi32(bytes, _mm256_set1_epi32(q));
        const __m256i bits =
            _mm256_and_si256(_mm256_srlv_epi32(group, lane_shift), low_bits);
        const __m256i minus_two_count = _mm256_madd_epi16(
            _mm256_maddubs_epi16(bits, weights_m2), ones);
        // ntaps - 2 * count: small integers, exact in float.
        const __m256 value =
            _mm256_add_ps(base, _mm256_cvtepi32_ps(minus_two_count));
        acc[q] = _mm256_add_ps(
            acc[q], _mm256_mul_ps(_mm256_loadu_ps(a + 8 * q), value));
      }
    }
  }
  const __m256 scalev = _mm256_set1_ps(scale);
  for (int q = 0; q < 8; ++q) {
    _mm256_storeu_ps(out + 8 * q, _mm256_mul_ps(acc[q], scalev));
  }
}

}  // namespace

const XnorKernel& xnor_kernel_avx2() {
  static const XnorKernel kernel{"avx2", /*simd_bits=*/256,
                                 avx2_direct_accumulate};
  return kernel;
}

}  // namespace hotspot::bitops

#endif  // HOTSPOT_XNOR_AVX2
