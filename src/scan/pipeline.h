// Streaming full-chip scan pipeline (DESIGN.md §11, §13).
//
// Replaces the eager extract-everything-then-predict scan with a bounded-
// memory pipeline:
//
//   ClipWindowStream -> memo -> rasterize -> dedup -> batch -> classifier
//        (lazy)        (geometry) (producer) (cache)  (double-buffered)
//
// The producer walks the window grid in scan order, rasterizes each window
// and folds duplicate rasters through RasterDedupCache, so each *distinct*
// raster occupies exactly one batch slot and pays inference exactly once.
// A window whose local rect list equals one a cache entry holds is that
// entry's raster, so it skips rasterization (the geometry memo).
// The producer runs on a helper thread and assembles batch N+1 while the
// classifier — which internally fans out on util::parallel_for's pool —
// consumes batch N on the calling thread, so rasterization hides behind
// inference. Rasterization itself stays serial on the producer: the pool
// serves one client at a time, and the classifier is that client.
//
// Batch composition is a pure function of scan order and the dedup state —
// never of timing or thread count — and the detector's per-window outputs
// are independent of batch composition, so scan results are bit-identical
// at any HOTSPOT_NUM_THREADS setting.
//
// Fault tolerance (DESIGN.md §13): each window/batch gets a cooperative
// deadline and a bounded retry budget; windows that fail past it are
// quarantined (label 0, listed in ScanResult::quarantined_windows, counted
// in stats and on scan.quarantined) instead of hanging or killing the scan.
// With a journal_path set, every completed batch is appended to a
// crash-safe scan journal so `resume = true` continues a killed scan from
// its last fsync'ed batch — bit-identical to an uninterrupted run.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "layout/geometry.h"
#include "scan/region.h"
#include "scan/window_stream.h"
#include "tensor/tensor.h"

namespace hotspot::scan {

// Thrown when the kScanAbort fault point fires mid-scan: the chaos
// harness's stand-in for a hard kill at a batch boundary. The journal (if
// any) keeps every batch appended before the throw.
struct ScanAborted : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ScanConfig {
  std::int64_t window_nm = 0;  // window edge length (required, > 0)
  std::int64_t step_nm = 0;    // scan stride; 0 = window_nm (non-overlapping)
  std::int64_t grid = 32;      // raster resolution fed to the classifier
  int batch_size = 64;         // distinct rasters per inference batch
  std::size_t dedup_max_entries = 0;  // LRU entry cap; 0 = unlimited
  // LRU cap on the dedup keys' bytes; 0 = unlimited. A key is the window's
  // binary raster bit-packed, (grid² + 7) / 8 bytes (128 B at 32 px).
  std::size_t dedup_max_bytes = 0;

  // Fault tolerance (DESIGN.md §13).
  int window_deadline_ms = 0;  // per-window attempt budget; 0 = no deadline
  int max_retries = 2;         // retry attempts after the first failure
  int retry_backoff_ms = 1;    // backoff before retry N is this << (N-1)
  std::string journal_path;    // append completed batches here; "" = off
  bool resume = false;         // recover journal_path state (requires path)
};

struct ScanStats {
  std::int64_t windows = 0;         // window positions scanned this run
  std::int64_t unique_windows = 0;  // rasters that paid inference
  std::int64_t dedup_hits = 0;      // windows served from the cache
  std::int64_t memo_hits = 0;       // of those, served by geometry alone
  std::int64_t batches = 0;         // inference batches issued
  std::int64_t retries = 0;         // failed attempts that were retried
  std::int64_t quarantined = 0;     // windows abandoned past the retry budget
  std::int64_t resume_skipped = 0;  // windows recovered from the journal
  double raster_seconds = 0.0;      // producer time (memo, raster, dedup)
  double infer_seconds = 0.0;       // classifier time
  double total_seconds = 0.0;       // wall time of the whole scan

  double dedup_hit_rate() const { return share_of_windows(dedup_hits); }
  double memo_hit_rate() const { return share_of_windows(memo_hits); }

 private:
  double share_of_windows(std::int64_t count) const {
    return windows == 0 ? 0.0
                        : static_cast<double>(count) /
                              static_cast<double>(windows);
  }
};

struct ScanResult {
  // One verdict per window in scan order (iy * cols + ix); 1 = hotspot.
  // Quarantined windows carry 0 here and their indices below.
  std::vector<int> labels;
  // Flagged windows merged into connected regions (8-connectivity).
  std::vector<HotspotRegion> regions;
  // Scan-order indices of windows whose raster or classification failed
  // past the retry budget; their labels are a conservative 0.
  std::vector<std::int64_t> quarantined_windows;
  ScanStats stats;

  // Window grid the labels are indexed by.
  std::int64_t cols = 0;
  std::int64_t rows = 0;
  std::int64_t origin_x = 0;
  std::int64_t origin_y = 0;
  std::int64_t window_nm = 0;
  std::int64_t step_nm = 0;

  std::int64_t flagged_count() const {
    std::int64_t count = 0;
    for (const int label : labels) {
      count += label != 0 ? 1 : 0;
    }
    return count;
  }

  // Eq. 3 over the whole scan: flagged windows pay litho, every window pays
  // detector evaluation.
  double odst(double litho_seconds_per_window,
              double eval_seconds_per_window) const {
    return static_cast<double>(flagged_count()) * litho_seconds_per_window +
           static_cast<double>(labels.size()) * eval_seconds_per_window;
  }
};

class ScanPipeline {
 public:
  // Classifies a [n, 1, grid, grid] {0,1} image batch into n labels
  // (1 = hotspot). Must be deterministic and per-sample independent —
  // BrnnModel::predict qualifies. The pipeline, not the classifier, probes
  // the predict-side fault points around each call (DESIGN.md §13).
  using BatchClassifier = std::function<std::vector<int>(
      const tensor::Tensor&)>;

  ScanPipeline(const ScanConfig& config, BatchClassifier classifier);

  const ScanConfig& config() const { return config_; }

  // Sweeps the window grid over `chip` and returns per-window verdicts,
  // merged hotspot regions, and scan statistics. Also bumps the
  // scan.windows / scan.dedup.{hits,misses} / scan.memo.hits /
  // scan.batches / scan.retries / scan.quarantined / scan.resume.skipped
  // counters in obs::MetricsRegistry::global().
  //
  // Throws ScanAborted when the kScanAbort fault point fires and
  // std::runtime_error when the journal cannot be opened or appended to
  // (resume mismatch, disk failure). Per-window faults never throw — they
  // retry, then quarantine.
  ScanResult scan(const layout::Pattern& chip);

 private:
  ScanConfig config_;
  BatchClassifier classifier_;
};

}  // namespace hotspot::scan
