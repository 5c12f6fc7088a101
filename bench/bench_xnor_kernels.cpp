// XNOR kernel micro-benchmark: throughput of each compiled + CPU-supported
// kernel's three primitives — words/sec for the GEMM primitives (one word =
// one 64-bit XOR + popcount + accumulate) and (lane, channel) updates/sec
// for direct_accumulate (one update = nine XNOR bits counted, one float
// multiply + add of the direct conv) — plus the speedup over the scalar
// reference. Writes
// BENCH_xnor_kernels.json for provenance. To compare kernels, run it under
// HOTSPOT_SIMD=scalar and HOTSPOT_SIMD=auto.
//
// The workload mirrors the paper-config hot loops: 72-word rows for the
// GEMM primitives (a 512-channel 3x3 patch = 4608 bits) and 256 input
// channels of 3x3 tap words for direct_accumulate (the direct Eq. 14/15
// path).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bitops/kernels/xnor_kernel.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using hotspot::bitops::XnorKernel;

constexpr std::int64_t kGemmWords = 72;       // 512ch x 3x3 = 4608 bits
constexpr std::int64_t kLaneChannels = 256;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::uint64_t> random_words(hotspot::util::Rng& rng,
                                        std::int64_t count) {
  std::vector<std::uint64_t> words(static_cast<std::size_t>(count));
  for (auto& word : words) {
    word = rng.next_u64();
  }
  return words;
}

// Runs `body` (which processes `words_per_call` word ops or updates and
// returns a value folded into the sink) until ~0.25 s elapsed, after a
// warmup; returns words (updates)/sec.
template <typename Body>
double measure_words_per_sec(std::int64_t words_per_call, Body body,
                             std::int64_t& sink) {
  for (int i = 0; i < 100; ++i) {
    sink += body();
  }
  std::int64_t calls = 0;
  const double start = now_seconds();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 256; ++i) {
      sink += body();
    }
    calls += 256;
    elapsed = now_seconds() - start;
  } while (elapsed < 0.25);
  return static_cast<double>(calls) * static_cast<double>(words_per_call) /
         elapsed;
}

struct KernelRates {
  double dot = 0.0;          // xor_popcount
  double gemm = 0.0;         // xor_popcount_2x4 (8 dots per call)
  double lanes = 0.0;        // direct_accumulate, (lane, channel) updates
};

KernelRates measure_kernel(const XnorKernel& kernel) {
  hotspot::util::Rng rng(2024);
  const auto a0 = random_words(rng, kGemmWords);
  const auto a1 = random_words(rng, kGemmWords);
  const auto b0 = random_words(rng, kGemmWords);
  const auto b1 = random_words(rng, kGemmWords);
  const auto b2 = random_words(rng, kGemmWords);
  const auto b3 = random_words(rng, kGemmWords);
  // Direct-conv path: nine tap words and a 9-bit filter per channel, alpha
  // rows as wide as the 64 lanes.
  const auto taps = random_words(rng, 9 * kLaneChannels);
  std::vector<std::uint16_t> weights(static_cast<std::size_t>(kLaneChannels));
  for (auto& w : weights) {
    w = static_cast<std::uint16_t>(rng.next_u64() & 0x1FFu);
  }
  std::vector<float> alpha(static_cast<std::size_t>(64 * kLaneChannels));
  for (float& a : alpha) {
    a = static_cast<float>(rng.uniform(0.1, 1.0));
  }

  KernelRates rates;
  std::int64_t sink = 0;
  rates.dot = measure_words_per_sec(
      kGemmWords,
      [&] { return kernel.xor_popcount(a0.data(), b0.data(), kGemmWords); },
      sink);
  rates.gemm = measure_words_per_sec(
      8 * kGemmWords,
      [&] {
        std::int64_t acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        kernel.xor_popcount_2x4(a0.data(), a1.data(), b0.data(), b1.data(),
                                b2.data(), b3.data(), kGemmWords, acc);
        return acc[0] + acc[7];
      },
      sink);
  rates.lanes = measure_words_per_sec(
      64 * kLaneChannels,
      [&] {
        float out[64];
        kernel.direct_accumulate(taps.data(), weights.data(), alpha.data(),
                                 64, kLaneChannels, kLaneChannels, 9, 0.5f,
                                 out);
        return static_cast<std::int64_t>(out[0] + out[63]);
      },
      sink);
  if (sink == 42) {  // defeats dead-code elimination of the timed bodies
    std::printf("sink %lld\n", static_cast<long long>(sink));
  }
  return rates;
}

}  // namespace

int main() {
  using hotspot::bench::JsonObject;
  hotspot::bench::print_header(
      "XNOR kernel word throughput (dispatch table, per-kernel)",
      "binarized conv runs as XNOR+popcount at SIMD width");

  const auto& kernels = hotspot::bitops::compiled_xnor_kernels();
  hotspot::util::Table table(
      {"kernel", "simd_bits", "dot Gw/s", "gemm2x4 Gw/s", "lanes Gupd/s",
       "gemm speedup", "lanes speedup"});
  JsonObject result;
  result.set("gemm_words", static_cast<long>(kGemmWords));
  result.set("lane_channels", static_cast<long>(kLaneChannels));

  KernelRates scalar_rates;
  int measured = 0;
  for (const XnorKernel* kernel : kernels) {
    if (!hotspot::bitops::xnor_kernel_cpu_supported(*kernel)) {
      std::printf("[skip] kernel '%s': not supported by this CPU\n",
                  kernel->name);
      continue;
    }
    const KernelRates rates = measure_kernel(*kernel);
    if (std::string(kernel->name) == "scalar") {
      scalar_rates = rates;
    }
    const double speedup =
        scalar_rates.gemm > 0.0 ? rates.gemm / scalar_rates.gemm : 0.0;
    const double lanes_speedup =
        scalar_rates.lanes > 0.0 ? rates.lanes / scalar_rates.lanes : 0.0;
    table.add_row({kernel->name, std::to_string(kernel->simd_bits),
                   std::to_string(rates.dot / 1e9),
                   std::to_string(rates.gemm / 1e9),
                   std::to_string(rates.lanes / 1e9), std::to_string(speedup),
                   std::to_string(lanes_speedup)});
    const std::string prefix = kernel->name;
    result.set(prefix + "_dot_words_per_sec", rates.dot);
    result.set(prefix + "_gemm_words_per_sec", rates.gemm);
    result.set(prefix + "_lane_updates_per_sec", rates.lanes);
    if (std::string(kernel->name) != "scalar") {
      result.set(prefix + "_gemm_speedup", speedup);
      result.set(prefix + "_lanes_speedup", lanes_speedup);
    }
    ++measured;
  }
  result.set("kernels_measured", measured);
  std::printf("%s\n", table.to_string().c_str());

  hotspot::bench::write_json_result("BENCH_xnor_kernels.json", result);
  return 0;
}
