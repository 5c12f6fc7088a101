// XNOR-GEMM kernel family behind a runtime CPU-dispatch table.
//
// Every kernel implements the same three primitives over the same explicit
// data layout, so the rest of the system (BitMatrix, xnor_gemm, the packed
// binary-conv paths) is written once against this interface and the widest
// ISA the running CPU supports is selected at process start:
//
//   layout   Packed rows are arrays of uint64 words, little-endian bit
//            order (bit b of word w covers column 64*w + b), with all tail
//            bits beyond the logical column count zero. `words` may be any
//            non-negative count: kernels vectorize full vector blocks and
//            finish the remainder scalar, so unpadded rows are always
//            correct. Rows padded to a multiple of `word_multiple`
//            (BitMatrix does this by construction) take the tail-free path.
//
//   exactness  xor_popcount / xor_popcount_2x4 accumulate in integers, so
//            every kernel returns the same value on the same input by
//            construction. weighted_sum involves float accumulation, whose
//            result depends on evaluation order — the interface therefore
//            pins a canonical order (below) that every kernel implements
//            exactly, making all kernels bit-identical to scalar. The
//            kernel translation units are compiled with -ffp-contract=off
//            so no kernel silently fuses the multiply-add into an FMA.
//
//   canonical weighted order  Eight float lanes; channel c contributes
//            alpha[c] * (dot_bits - 2*popcount(a[c] ^ b[c])) to lane c % 8,
//            blocks of eight channels in ascending order, one multiply and
//            one add per contribution (two roundings), then the tree
//            reduction ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). Channels with
//            alpha[c] == 0 contribute exactly +0.0f, so padding channels
//            (zero words, zero alpha) never change the result.
//
// This dispatch seam is also the backend plug point for the compiled
// inference plan (core/inference_plan.h): a backend provides an XnorKernel
// (name, layout requirement, the three primitives) and everything
// downstream — packing geometry included — follows from the table entry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hotspot::bitops {

struct XnorKernel {
  // Stable identifier ("scalar", "avx2", "avx512"); used by the
  // HOTSPOT_SIMD override, log lines, span names, and the run manifest.
  const char* name;
  // SIMD register width in bits; reported by the bitops.kernel gauge.
  std::int64_t simd_bits;
  // Pad packed rows to a multiple of this many 64-bit words for tail-free
  // inner loops (1 for scalar, 4 for AVX2, 8 for AVX-512).
  std::int64_t word_multiple;

  // Sum of popcount(a[w] ^ b[w]) over `words` words.
  std::int64_t (*xor_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                               std::int64_t words);

  // Dense 2x4 register tile: acc[r*4 + c] += popcount(a_r[w] ^ b_c[w])
  // summed over `words`, for r in {0,1} over {a0,a1} and c in {0..3} over
  // {b0..b3}. The register-blocked heart of xnor_gemm.
  void (*xor_popcount_2x4)(const std::uint64_t* a0, const std::uint64_t* a1,
                           const std::uint64_t* b0, const std::uint64_t* b1,
                           const std::uint64_t* b2, const std::uint64_t* b3,
                           std::int64_t words, std::int64_t acc[8]);

  // Per-channel weighted reduction for the Eq. 14/15 packed path: returns
  //   sum_c alpha[c] * (dot_bits - 2*popcount(a[c] ^ b[c]))
  // over `channels` single-word channels, in the canonical weighted order
  // documented above. dot_bits is kh*kw as float (exact for <= 64).
  float (*weighted_sum)(const std::uint64_t* a, const std::uint64_t* b,
                        const float* alpha, std::int64_t channels,
                        float dot_bits);

  // Four-filter batch of weighted_sum over one patch row: out[f] must equal
  // weighted_sum(a, bf, alpha, channels, dot_bits) bit-for-bit. The batch
  // exists purely for speed — the canonical order is per-filter, so sharing
  // the a/alpha loads across four independent accumulator chains changes
  // nothing about the result but hides the per-block add latency that
  // bounds the single-filter form and amortizes the per-call setup/reduce.
  void (*weighted_sum_x4)(const std::uint64_t* a, const std::uint64_t* b0,
                          const std::uint64_t* b1, const std::uint64_t* b2,
                          const std::uint64_t* b3, const float* alpha,
                          std::int64_t channels, float dot_bits,
                          float out[4]);
};

// The always-available reference kernel every other kernel must match
// bit-for-bit (tests/bitops/kernel_identity_test.cpp sweeps this).
const XnorKernel& xnor_kernel_scalar();

// Every kernel compiled into this binary, scalar first, widest last. An
// entry may still be unsupported by the running CPU.
const std::vector<const XnorKernel*>& compiled_xnor_kernels();

// True when the running CPU (and OS) can execute this kernel.
bool xnor_kernel_cpu_supported(const XnorKernel& kernel);

// Kernel lookup by name among compiled kernels; nullptr when absent.
const XnorKernel* find_xnor_kernel(const char* name);

// Resolves a HOTSPOT_SIMD-style spec ("scalar" | "avx2" | "avx512" |
// "auto"; nullptr/empty mean "auto") against the compiled + CPU-supported
// kernels. Returns nullptr with `error` set for an unknown name or a kernel
// this binary/CPU cannot run — the caller decides whether that is fatal.
const XnorKernel* resolve_xnor_kernel(const char* spec, std::string& error);

// The dispatched kernel. Resolved once per process on first use: reads
// HOTSPOT_SIMD (garbage or an unrunnable kernel prints the error and exits
// 2 — never a silent fallback), logs the resolved kernel, publishes the
// bitops.kernel gauge and the run-manifest "xnor_kernel" note.
const XnorKernel& active_xnor_kernel();

// Replaces the active kernel for the rest of the process (gauge and
// manifest note follow). For tests and benches that sweep kernels; regular
// code must rely on HOTSPOT_SIMD. Matrices packed under the previous
// kernel remain correct — kernels accept any word count — but new packing
// follows the new kernel's padding, so callers that cache packed data keyed
// on the kernel (BrnnModel's inference plan is) re-pack automatically.
void set_active_xnor_kernel(const XnorKernel& kernel);

namespace detail {
// Re-runs the startup resolution (HOTSPOT_SIMD read + strict validation,
// exiting 2 on garbage) regardless of the cached kernel. Only for death
// tests that pin the exit-2 contract.
const XnorKernel& resolve_active_from_env_for_test();
}  // namespace detail

}  // namespace hotspot::bitops
