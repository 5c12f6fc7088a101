// Per-layer roofline profiler (DESIGN.md §10).
//
// Joins two things the repo already produces separately:
//   - measured per-layer wall time, from the "brnn.conv.*" /
//     "brnn.layer.head_fc" trace spans (obs/trace.h), together with the
//     sample counter BrnnModel keeps while tracing is enabled;
//   - analytic per-layer work, from core/cost_model.h (XNOR+popcount word
//     ops and float epilogue ops for binary convolutions, dense MACs for
//     the classifier head).
//
// The result is one row per weight layer: time, operations executed
// (bitops = 64 binary MACs per packed word op), achieved Gops/s, and the
// share of total profiled time — the numbers needed to see which layer is
// compute-bound and how far each sits from the kernel's peak.
//
// Profiling protocol: enable tracing, reset both windows
// (obs::reset_spans() + model.reset_profile()), run the forwards to
// profile, then call build_roofline(model, obs::collect_span_report()).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/brnn.h"
#include "obs/trace.h"

namespace hotspot::core {

struct RooflineLayer {
  std::string label;     // span label, e.g. "brnn.conv.block1a"
  std::string geometry;  // cost-model description, e.g. "16->32 k3 s2 @32x32"
  bool main_path = true;  // false for projection shortcuts (not in the
                          // paper's 12-layer count)
  std::uint64_t samples = 0;  // forward samples profiled through this layer
  double seconds = 0.0;       // total span wall time
  double bitops = 0.0;        // binary MACs executed (64 per word op)
  double float_ops = 0.0;     // float epilogue ops (convs) or MACs*2 (fc)
  double gops_per_second = 0.0;  // (bitops + float_ops) / seconds / 1e9
  double time_fraction = 0.0;    // seconds / report total_seconds
};

struct RooflineReport {
  std::vector<RooflineLayer> layers;  // model order: convs, then head fc
  double total_seconds = 0.0;         // sum of per-layer seconds
  std::uint64_t samples = 0;          // BrnnModel::profile_samples()
  // Active XNOR kernel when the report was built ("scalar"/"avx2"/...):
  // achieved Gops/s is only comparable between reports with equal kernels.
  std::string kernel;

  const RooflineLayer* find(const std::string& label) const;
  // Layers on the paper's main path (stem + block convs + fc); with the
  // paper() config this is 12.
  std::int64_t main_path_layer_count() const;
};

// Joins the model's profile counters and cost model with a span report
// collected over the same window. Layers whose span is absent from
// `spans` (never executed while tracing) get zero time.
RooflineReport build_roofline(const BrnnModel& model,
                              const obs::SpanReport& spans);

// Aligned plain-text table (one row per layer plus a totals row).
std::string to_table(const RooflineReport& report);

// One JSON object: {"layers": [...], "total_seconds": ..., "samples": ...}.
std::string to_json(const RooflineReport& report);

}  // namespace hotspot::core
