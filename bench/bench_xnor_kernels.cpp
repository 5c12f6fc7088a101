// XNOR kernel micro-benchmark: raw word throughput of each compiled +
// CPU-supported kernel's three primitives, reported as words/sec (one word
// = one 64-bit XOR + popcount + accumulate) plus the speedup over the
// scalar reference. Writes BENCH_xnor_kernels.json for provenance. To
// compare kernels, run it under HOTSPOT_SIMD=scalar and HOTSPOT_SIMD=auto.
//
// The workload mirrors the paper-config hot loops: 72-word rows for the
// GEMM primitives (a 512-channel 3x3 patch = 4608 bits) and 256 one-word
// channels for weighted_sum (the channel-blocked Eq. 14/15 path).
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
constexpr std::int64_t kWeightedChannels = 256;

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

// Runs `body` (which processes `words_per_call` word ops and returns a
// value folded into the sink) until ~0.25 s elapsed, after a warmup;
// returns words/sec.
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
  double weighted = 0.0;     // weighted_sum
  double weighted_x4 = 0.0;  // weighted_sum_x4 (4 filters per call)
};

KernelRates measure_kernel(const XnorKernel& kernel) {
  hotspot::util::Rng rng(2024);
  const auto a0 = random_words(rng, kGemmWords);
  const auto a1 = random_words(rng, kGemmWords);
  const auto b0 = random_words(rng, kGemmWords);
  const auto b1 = random_words(rng, kGemmWords);
  const auto b2 = random_words(rng, kGemmWords);
  const auto b3 = random_words(rng, kGemmWords);
  // Weighted path: channel count padded the way BinaryConv2d pads it.
  const std::int64_t padded =
      (kWeightedChannels + kernel.word_multiple - 1) / kernel.word_multiple *
      kernel.word_multiple;
  const auto wa = random_words(rng, padded);
  const auto wb = random_words(rng, padded);
  std::vector<float> alpha(static_cast<std::size_t>(padded), 0.0f);
  for (std::int64_t c = 0; c < kWeightedChannels; ++c) {
    alpha[static_cast<std::size_t>(c)] =
        static_cast<float>(rng.uniform(0.1, 1.0));
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
  rates.weighted = measure_words_per_sec(
      padded,
      [&] {
        return static_cast<std::int64_t>(kernel.weighted_sum(
            wa.data(), wb.data(), alpha.data(), padded, 9.0f));
      },
      sink);
  const auto wb1 = random_words(rng, padded);
  const auto wb2 = random_words(rng, padded);
  const auto wb3 = random_words(rng, padded);
  rates.weighted_x4 = measure_words_per_sec(
      4 * padded,
      [&] {
        float quad[4];
        kernel.weighted_sum_x4(wa.data(), wb.data(), wb1.data(), wb2.data(),
                               wb3.data(), alpha.data(), padded, 9.0f, quad);
        return static_cast<std::int64_t>(quad[0] + quad[3]);
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
      {"kernel", "simd_bits", "dot Gw/s", "gemm2x4 Gw/s", "weighted Gw/s",
       "weighted_x4 Gw/s", "gemm speedup"});
  JsonObject result;
  result.set("gemm_words", static_cast<long>(kGemmWords));
  result.set("weighted_channels", static_cast<long>(kWeightedChannels));

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
    table.add_row({kernel->name, std::to_string(kernel->simd_bits),
                   std::to_string(rates.dot / 1e9),
                   std::to_string(rates.gemm / 1e9),
                   std::to_string(rates.weighted / 1e9),
                   std::to_string(rates.weighted_x4 / 1e9),
                   std::to_string(speedup)});
    const std::string prefix = kernel->name;
    result.set(prefix + "_dot_words_per_sec", rates.dot);
    result.set(prefix + "_gemm_words_per_sec", rates.gemm);
    result.set(prefix + "_weighted_words_per_sec", rates.weighted);
    result.set(prefix + "_weighted_x4_words_per_sec", rates.weighted_x4);
    if (std::string(kernel->name) != "scalar") {
      result.set(prefix + "_gemm_speedup", speedup);
      result.set(prefix + "_weighted_speedup",
                 scalar_rates.weighted > 0.0
                     ? rates.weighted / scalar_rates.weighted
                     : 0.0);
      result.set(prefix + "_weighted_x4_speedup",
                 scalar_rates.weighted_x4 > 0.0
                     ? rates.weighted_x4 / scalar_rates.weighted_x4
                     : 0.0);
    }
    ++measured;
  }
  result.set("kernels_measured", measured);
  std::printf("%s\n", table.to_string().c_str());

  hotspot::bench::write_json_result("BENCH_xnor_kernels.json", result);
  return 0;
}
