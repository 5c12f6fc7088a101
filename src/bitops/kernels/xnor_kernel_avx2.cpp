// AVX2 kernel: 256-bit XOR + vpshufb nibble-LUT popcount (Mula's
// algorithm), accumulated through vpsadbw into four 64-bit lane sums per
// 256-bit block. Compiled with -mavx2 on its own (this file only); never
// executed unless cpuid reports AVX2 (kernels/dispatch.cpp), so the rest of
// the binary stays portable.
//
// Bit-exactness: integer primitives are exact by construction (the direct
// conv's adder tree counts four channels per register); direct_accumulate
// realizes the canonical position-major order of xnor_kernel.h eight lanes
// per register, with one vector multiply + add per channel
// (-ffp-contract=off keeps them two rounded operations).
#include "bitops/kernels/xnor_kernel.h"

#if defined(HOTSPOT_XNOR_AVX2)

#include <immintrin.h>

#include <bit>

namespace hotspot::bitops {
namespace {

// Per-64-bit-lane popcount of a 256-bit register: nibble LUT via vpshufb,
// byte sums horizontally folded by vpsadbw against zero.
inline __m256i popcount_epi64(__m256i x) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(x, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

inline __m256i load256(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline std::int64_t reduce_epi64(__m256i v) {
  const __m128i folded = _mm_add_epi64(_mm256_castsi256_si128(v),
                                       _mm256_extracti128_si256(v, 1));
  return _mm_cvtsi128_si64(folded) + _mm_extract_epi64(folded, 1);
}

std::int64_t avx2_xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                               std::int64_t words) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t w = 0;
  for (; w + 4 <= words; w += 4) {
    acc = _mm256_add_epi64(
        acc, popcount_epi64(_mm256_xor_si256(load256(a + w), load256(b + w))));
  }
  std::int64_t mismatches = reduce_epi64(acc);
  for (; w < words; ++w) {
    mismatches += std::popcount(a[w] ^ b[w]);
  }
  return mismatches;
}

void avx2_xor_popcount_2x4(const std::uint64_t* a0, const std::uint64_t* a1,
                           const std::uint64_t* b0, const std::uint64_t* b1,
                           const std::uint64_t* b2, const std::uint64_t* b3,
                           std::int64_t words, std::int64_t acc[8]) {
  __m256i acc00 = _mm256_setzero_si256(), acc01 = _mm256_setzero_si256();
  __m256i acc02 = _mm256_setzero_si256(), acc03 = _mm256_setzero_si256();
  __m256i acc10 = _mm256_setzero_si256(), acc11 = _mm256_setzero_si256();
  __m256i acc12 = _mm256_setzero_si256(), acc13 = _mm256_setzero_si256();
  std::int64_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i av0 = load256(a0 + w);
    const __m256i av1 = load256(a1 + w);
    const __m256i bv0 = load256(b0 + w);
    const __m256i bv1 = load256(b1 + w);
    const __m256i bv2 = load256(b2 + w);
    const __m256i bv3 = load256(b3 + w);
    acc00 = _mm256_add_epi64(acc00, popcount_epi64(_mm256_xor_si256(av0, bv0)));
    acc01 = _mm256_add_epi64(acc01, popcount_epi64(_mm256_xor_si256(av0, bv1)));
    acc02 = _mm256_add_epi64(acc02, popcount_epi64(_mm256_xor_si256(av0, bv2)));
    acc03 = _mm256_add_epi64(acc03, popcount_epi64(_mm256_xor_si256(av0, bv3)));
    acc10 = _mm256_add_epi64(acc10, popcount_epi64(_mm256_xor_si256(av1, bv0)));
    acc11 = _mm256_add_epi64(acc11, popcount_epi64(_mm256_xor_si256(av1, bv1)));
    acc12 = _mm256_add_epi64(acc12, popcount_epi64(_mm256_xor_si256(av1, bv2)));
    acc13 = _mm256_add_epi64(acc13, popcount_epi64(_mm256_xor_si256(av1, bv3)));
  }
  acc[0] += reduce_epi64(acc00);
  acc[1] += reduce_epi64(acc01);
  acc[2] += reduce_epi64(acc02);
  acc[3] += reduce_epi64(acc03);
  acc[4] += reduce_epi64(acc10);
  acc[5] += reduce_epi64(acc11);
  acc[6] += reduce_epi64(acc12);
  acc[7] += reduce_epi64(acc13);
  for (; w < words; ++w) {
    const std::uint64_t aw0 = a0[w];
    const std::uint64_t aw1 = a1[w];
    acc[0] += std::popcount(aw0 ^ b0[w]);
    acc[1] += std::popcount(aw0 ^ b1[w]);
    acc[2] += std::popcount(aw0 ^ b2[w]);
    acc[3] += std::popcount(aw0 ^ b3[w]);
    acc[4] += std::popcount(aw1 ^ b0[w]);
    acc[5] += std::popcount(aw1 ^ b1[w]);
    acc[6] += std::popcount(aw1 ^ b2[w]);
    acc[7] += std::popcount(aw1 ^ b3[w]);
  }
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
  static const XnorKernel kernel{
      "avx2",            /*simd_bits=*/256,
      /*word_multiple=*/4, avx2_xor_popcount,
      avx2_xor_popcount_2x4, avx2_direct_accumulate,
  };
  return kernel;
}

}  // namespace hotspot::bitops

#endif  // HOTSPOT_XNOR_AVX2
