// Thread-scaling harness for the binary inference hot path.
//
// Sweeps the pool width over batched BRNN inference (packed XNOR backend
// and the float-sim reference), checking that logits stay bit-identical at
// every thread count — the determinism guarantee of util::parallel_for —
// and writes BENCH_parallel.json for provenance.
//
// Scale knobs: HOTSPOT_BENCH_SCALE / HOTSPOT_BENCH_LS (shared with the other
// benches), HOTSPOT_BENCH_REPEATS (timing repeats, best-of), and
// HOTSPOT_BENCH_THREADS (max pool width to sweep; defaults to the larger of
// 4 and the hardware concurrency).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/brnn.h"
#include "dataset/generator.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace hotspot;

double best_of(int repeats, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    util::Stopwatch timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

bool bit_identical(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (!a.same_shape(b)) {
    return false;
  }
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::print_header(
      "Parallel scaling: batched BRNN inference vs pool width",
      "60 s for the merged ICCAD-2012 benchmark (Table 3); speed is the "
      "paper's headline claim, so the reproduction tracks thread scaling");

  const auto ls = bench::bench_image_size();
  const auto repeats =
      static_cast<int>(bench::env_long("HOTSPOT_BENCH_REPEATS", 3));
  const unsigned hardware = std::thread::hardware_concurrency();
  const long max_threads = bench::env_long(
      "HOTSPOT_BENCH_THREADS",
      std::max(4L, static_cast<long>(hardware >= 1 ? hardware : 1)));

  // CI-scale workload: a generated clip batch through the compact BRNN.
  dataset::BenchmarkConfig config =
      dataset::iccad2012_config(bench::bench_scale(), ls);
  const dataset::Benchmark data = dataset::generate_benchmark(config);
  const auto indices = data.test.all_indices();
  const std::vector<std::size_t> head(
      indices.begin(),
      indices.begin() + std::min<std::size_t>(indices.size(), 64));
  const tensor::Tensor images = data.test.batch_images(head);

  util::Rng rng(0x5ca11ab1e);
  core::BrnnModel model(core::BrnnConfig::compact(ls), rng);
  model.set_training(false);

  std::vector<long> widths;
  for (long t = 1; t <= max_threads; t *= 2) {
    widths.push_back(t);
  }
  if (widths.back() != max_threads) {
    widths.push_back(max_threads);
  }

  std::printf("Workload: %zu clips at %ldpx, repeats=%d (best-of), "
              "hardware_concurrency=%u\n\n",
              head.size(), ls, repeats, hardware);
  std::printf("%8s %14s %14s %10s\n", "threads", "packed (s)",
              "float-sim (s)", "identical");

  tensor::Tensor reference_packed;
  tensor::Tensor reference_float;
  std::vector<bench::JsonObject> sweep;
  bool all_identical = true;
  double packed_1t = 0.0;

  for (const long threads : widths) {
    util::set_parallel_threads(static_cast<int>(threads));

    model.set_backend(core::Backend::kPacked);
    model.forward(images);  // warm-up: packs the filter cache
    tensor::Tensor packed_logits;
    const double packed_s =
        best_of(repeats, [&] { packed_logits = model.forward(images); });

    model.set_backend(core::Backend::kFloatSim);
    model.forward(images);
    tensor::Tensor float_logits;
    const double float_s =
        best_of(repeats, [&] { float_logits = model.forward(images); });

    if (threads == widths.front()) {
      reference_packed = packed_logits;
      reference_float = float_logits;
      packed_1t = packed_s;
    }
    const bool identical = bit_identical(packed_logits, reference_packed) &&
                           bit_identical(float_logits, reference_float);
    all_identical = all_identical && identical;

    std::printf("%8ld %14.4f %14.4f %10s\n", threads, packed_s, float_s,
                identical ? "yes" : "NO");

    bench::JsonObject entry;
    entry.set("threads", threads)
        .set("packed_seconds", packed_s)
        .set("float_sim_seconds", float_s)
        .set("packed_speedup_vs_1t", packed_s > 0.0 ? packed_1t / packed_s
                                                    : 0.0)
        .set("bit_identical_vs_1t", identical);
    sweep.push_back(entry);
  }

  std::printf("\nDeterminism: logits %s across thread counts.\n",
              all_identical ? "bit-identical" : "DIVERGED");
  if (hardware < 4) {
    std::printf("(Only %u hardware thread(s) available: wall-clock speedup "
                "is bounded by the host; the sweep still validates "
                "determinism at every pool width.)\n",
                hardware);
  }

  bench::JsonObject result;
  result.set("bench", "parallel_scaling")
      .set("image_size", ls)
      .set("batch", static_cast<long>(head.size()))
      .set("repeats", repeats)
      .set("hardware_concurrency", static_cast<long>(hardware))
      .set("bit_identical", all_identical)
      .set_raw("sweep", bench::json_array(sweep));
  bench::write_json_result("BENCH_parallel.json", result);

  return all_identical ? 0 : 1;
}
