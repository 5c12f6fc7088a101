// XNOR kernel family behind a runtime CPU-dispatch table.
//
// Every kernel implements the one primitive of the position-sliced direct
// binary conv (core::direct_conv) over the same explicit data layout, so
// the conv is written once against this interface and the widest ISA the
// running CPU supports is selected at process start:
//
//   layout   A lane word is a uint64 holding one bit per output position:
//            bit j is lane j. Tap words of one tap are `channel_stride`
//            words apart, one per input channel.
//
//   exactness  direct_accumulate involves float accumulation, whose result
//            depends on evaluation order — the interface therefore pins a
//            canonical order (below) that every kernel implements exactly,
//            making all kernels bit-identical to scalar. The kernel
//            translation units are compiled with -ffp-contract=off so no
//            kernel silently fuses the multiply-add into an FMA.
//
//   canonical weighted order  Position-major: every output position (lane)
//            owns one float accumulator, starting from +0.0f. Input
//            channels are added in ascending order, each as
//            acc = acc + alpha_T(c, lane) * float(k*k - 2*mismatches(c,
//            lane)), one multiply and one add (two roundings); the result
//            is acc * alpha_W. There is no cross-lane reduction: a vector
//            kernel runs independent lanes side by side, so the order is
//            the same at every vector width. With alpha_T = 1 (the scalar
//            mode) every partial sum is an integer of magnitude at most
//            Cin*k*k, exact in float, so acc is the integer +/-1 patch
//            count.
//
// This dispatch seam is also the backend plug point for the compiled
// inference plan (core/inference_plan.h): a backend provides an XnorKernel
// (name, register width, the primitive) and everything downstream follows
// from the table entry.
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
  // Aggregate of the position-sliced direct binary conv (Eq. 14/15,
  // core::direct_conv) for one 64-lane word and one filter.
  // taps[t * channel_stride + c] is the lane word of tap t (< ntaps <= 15)
  // in input channel c, and bit t of weights[c] is the filter's sign bit
  // for that tap; both are readable, zero past `channels`, up to
  // `channel_stride` (a multiple of 8). For every lane j, with
  // mismatches(c) the number of taps whose bit j differs from the weight
  // bit (XOR, then a carry-save adder tree):
  //   acc = +0.0f
  //   for c in [0, channels):
  //     acc = acc + alpha[c * alpha_stride + j] * float(ntaps -
  //                                                    2 * mismatches(c))
  //   out[j] = acc * scale
  // in the canonical weighted order above. alpha_stride may be 0: every
  // channel then reads the same 64-float row (a row of 1.0f is the unit
  // alpha_T of the scalar mode).
  void (*direct_accumulate)(const std::uint64_t* taps,
                            const std::uint16_t* weights, const float* alpha,
                            std::int64_t alpha_stride, std::int64_t channels,
                            std::int64_t channel_stride, std::int64_t ntaps,
                            float scale, float out[64]);
};

// The always-available reference kernel every other kernel must match
// bit-for-bit. Every kernel, this one included, is checked against a plain
// definition of the primitive in tests/core/conv_reference_test.cpp.
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
// code must rely on HOTSPOT_SIMD. Callers that cache compiled data keyed
// on the kernel (BrnnModel's inference plan is) recompile automatically.
void set_active_xnor_kernel(const XnorKernel& kernel);

namespace detail {
// Re-runs the startup resolution (HOTSPOT_SIMD read + strict validation,
// exiting 2 on garbage) regardless of the cached kernel. Only for death
// tests that pin the exit-2 contract.
const XnorKernel& resolve_active_from_env_for_test();
}  // namespace detail

}  // namespace hotspot::bitops
