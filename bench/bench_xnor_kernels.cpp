// XNOR kernel micro-benchmark: throughput of each compiled + CPU-supported
// kernel's primitive, direct_accumulate, in (lane, channel) updates/sec
// (one update = nine XNOR bits counted, one float multiply + add of the
// direct conv), plus the speedup over the scalar reference. Writes
// BENCH_xnor_kernels.json for provenance. To compare kernels, run it under
// HOTSPOT_SIMD=scalar and HOTSPOT_SIMD=auto.
//
// The workload mirrors the paper-config hot loop: 256 input channels of
// 3x3 tap words (the direct Eq. 14/15 path).
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

// Runs `body` (which processes `updates_per_call` updates and returns a
// value folded into the sink) until ~0.25 s elapsed, after a warmup;
// returns updates/sec.
template <typename Body>
double measure_updates_per_sec(std::int64_t updates_per_call, Body body,
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
  return static_cast<double>(calls) * static_cast<double>(updates_per_call) /
         elapsed;
}

// direct_accumulate (lane, channel) updates/sec.
double measure_kernel(const XnorKernel& kernel) {
  hotspot::util::Rng rng(2024);
  // Nine tap words and a 9-bit filter per channel, alpha rows as wide as
  // the 64 lanes.
  const auto taps = random_words(rng, 9 * kLaneChannels);
  std::vector<std::uint16_t> weights(static_cast<std::size_t>(kLaneChannels));
  for (auto& w : weights) {
    w = static_cast<std::uint16_t>(rng.next_u64() & 0x1FFu);
  }
  std::vector<float> alpha(static_cast<std::size_t>(64 * kLaneChannels));
  for (float& a : alpha) {
    a = static_cast<float>(rng.uniform(0.1, 1.0));
  }

  std::int64_t sink = 0;
  const double lanes = measure_updates_per_sec(
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
  return lanes;
}

}  // namespace

int main() {
  using hotspot::bench::JsonObject;
  hotspot::bench::print_header(
      "XNOR kernel lane throughput (dispatch table, per-kernel)",
      "binarized conv runs as XNOR + adder tree at SIMD width");

  const auto& kernels = hotspot::bitops::compiled_xnor_kernels();
  hotspot::util::Table table(
      {"kernel", "simd_bits", "lanes Gupd/s", "lanes speedup"});
  JsonObject result;
  result.set("lane_channels", static_cast<long>(kLaneChannels));

  double scalar_lanes = 0.0;
  int measured = 0;
  for (const XnorKernel* kernel : kernels) {
    if (!hotspot::bitops::xnor_kernel_cpu_supported(*kernel)) {
      std::printf("[skip] kernel '%s': not supported by this CPU\n",
                  kernel->name);
      continue;
    }
    const double lanes = measure_kernel(*kernel);
    if (std::string(kernel->name) == "scalar") {
      scalar_lanes = lanes;
    }
    const double speedup = scalar_lanes > 0.0 ? lanes / scalar_lanes : 0.0;
    table.add_row({kernel->name, std::to_string(kernel->simd_bits),
                   std::to_string(lanes / 1e9), std::to_string(speedup)});
    const std::string prefix = kernel->name;
    result.set(prefix + "_lane_updates_per_sec", lanes);
    if (std::string(kernel->name) != "scalar") {
      result.set(prefix + "_lanes_speedup", speedup);
    }
    ++measured;
  }
  result.set("kernels_measured", measured);
  std::printf("%s\n", table.to_string().c_str());

  hotspot::bench::write_json_result("BENCH_xnor_kernels.json", result);
  return 0;
}
