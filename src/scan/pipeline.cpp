#include "scan/pipeline.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "layout/raster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scan/dedup_cache.h"
#include "scan/journal.h"
#include "util/bounded_queue.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/stopwatch.h"

namespace hotspot::scan {
namespace {

// The wall clock of one guarded attempt, started before its body runs.
class AttemptClock {
 public:
  explicit AttemptClock(double deadline_ms) : deadline_ms_(deadline_ms) {}

  double seconds() const { return timer_.seconds(); }

  // Cooperative deadline (0 = none): a wedged computation cannot be
  // preempted, but a stalled one is caught here instead of poisoning the
  // whole scan. A body calls it once its work is done and before it
  // commits any state, so a late attempt leaves nothing behind.
  void check_deadline() const {
    if (deadline_ms_ > 0.0 && timer_.seconds() * 1000.0 > deadline_ms_) {
      throw std::runtime_error("scan attempt exceeded its deadline");
    }
  }

 private:
  double deadline_ms_;
  util::Stopwatch timer_;
};

// The guard around every unit of scan work, windows and batches alike:
// runs `attempt(clock)` up to max_retries + 1 times, each under a fresh
// AttemptClock, and treats a throw as a failed attempt. Each retry counts
// on `retries` and scan.retries and first backs off retry_backoff_ms << i.
// Returns the result of the first attempt that does not throw, or nullopt
// once the budget is spent; what that quarantines is the caller's call.
template <typename Attempt>
auto run_guarded(const ScanConfig& config, double deadline_ms,
                 std::int64_t& retries, Attempt&& attempt)
    -> std::optional<decltype(attempt(std::declval<const AttemptClock&>()))> {
  static obs::Counter& retries_counter =
      obs::MetricsRegistry::global().counter("scan.retries");
  for (int i = 0;; ++i) {
    try {
      const AttemptClock clock(deadline_ms);
      return attempt(clock);
    } catch (...) {
      if (i >= config.max_retries) {
        return std::nullopt;
      }
    }
    ++retries;
    retries_counter.increment();
    if (config.retry_backoff_ms > 0) {
      const int shift = std::min(i, 20);  // cap exponential growth
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<long long>(config.retry_backoff_ms) << shift));
    }
  }
}

struct BatchPlan {
  tensor::Tensor images;        // [count, 1, grid, grid]; unset if count == 0
  std::int64_t base_entry = 0;  // first entry id covered by this batch
  std::int64_t count = 0;       // new distinct rasters in this batch
  std::int64_t win_begin = 0;   // window span this batch consumed
  std::int64_t win_end = 0;
  // window_entry slice over [win_begin, win_end); -1 = quarantined.
  std::vector<std::int64_t> entries;
  // Packed keys of the `count` new entries, in entry order (journaling
  // only).
  std::vector<RasterKey> pixels;
};

// Bounded handoff between the raster producer and the inference consumer.
// Capacity 2 keeps one finished batch staged while the next is assembled —
// the double buffer — without letting the producer run unboundedly ahead.
// The queue itself is the generic util::BoundedQueue the serve layer's
// admission scheduler also builds on (DESIGN.md §15); the scan pipeline is
// its weight-1, capacity-2 instantiation.
using BatchQueue = util::BoundedQueue<BatchPlan>;

// Walks the window grid in scan order, rasterizing and deduplicating into
// fixed-size batches of distinct rasters. Single-threaded by design (see
// pipeline.h); next_batch() is the producer's only entry point.
class BatchProducer {
 public:
  BatchProducer(const ScanConfig& config, const layout::Pattern& chip,
                ScanStats& stats)
      : config_(config),
        stream_(chip, config.window_nm,
                config.step_nm > 0 ? config.step_nm : config.window_nm),
        cache_(config.dedup_max_entries, config.dedup_max_bytes),
        keep_pixels_(!config.journal_path.empty()),
        stats_(stats) {
    window_entry_.assign(static_cast<std::size_t>(stream_.window_count()), 0);
  }

  const ClipWindowStream& stream() const { return stream_; }
  const std::vector<std::int64_t>& window_entry() const {
    return window_entry_;
  }

  // Adopts journal-recovered state: skips the recovered windows and rebuilds
  // the dedup cache by replaying the recovered access sequence, so LRU order
  // (and therefore every future hit/miss/eviction) matches the state the
  // interrupted run would have reached.
  void adopt(const JournalState& state) {
    HOTSPOT_CHECK_LE(state.windows_done, stream_.window_count())
        << "journal covers more windows than this scan has";
    stream_.seek(state.windows_done);
    windows_seen_ = state.windows_done;
    next_entry_ = state.entry_count();
    for (std::int64_t w = 0; w < state.windows_done; ++w) {
      const std::int64_t entry = state.window_entry[static_cast<std::size_t>(w)];
      window_entry_[static_cast<std::size_t>(w)] = entry;
      if (entry < 0) {
        continue;
      }
      const RasterKey& pixels =
          state.entry_pixels[static_cast<std::size_t>(entry)];
      const std::uint64_t hash = hash_raster(pixels);
      if (cache_.find(hash, pixels) < 0) {
        cache_.insert(hash, pixels, entry);
      }
    }
  }

  // Assembles the next batch. Returns false only when no windows remain; a
  // returned plan can have count == 0 (every window in its span was a dedup
  // hit or quarantined) — the journal still needs that span recorded.
  bool next_batch(BatchPlan& out) {
    HOTSPOT_TRACE_SPAN("scan.batch.rasterize");
    util::Stopwatch timer;
    const std::int64_t grid = config_.grid;
    const std::int64_t pixels_per_window = grid * grid;
    std::vector<float> slots;
    const std::int64_t remaining = stream_.window_count() - windows_seen_;
    slots.reserve(static_cast<std::size_t>(
        std::min<std::int64_t>(config_.batch_size, remaining) *
        pixels_per_window));
    const std::int64_t base_entry = next_entry_;
    const std::int64_t win_begin = windows_seen_;
    std::vector<RasterKey> batch_pixels;
    std::int64_t count = 0;
    std::int64_t windows_in_batch = 0;
    std::int64_t hits_in_batch = 0;
    std::int64_t memo_hits_in_batch = 0;
    WindowRef ref;
    while (count < config_.batch_size && stream_.next(ref)) {
      ++windows_in_batch;
      std::optional<WindowOutcome> outcome = process_window(ref);
      if (!outcome) {
        window_entry_[static_cast<std::size_t>(ref.index)] = -1;
        continue;
      }
      window_entry_[static_cast<std::size_t>(ref.index)] = outcome->entry;
      if (!outcome->is_new) {
        ++hits_in_batch;
        memo_hits_in_batch += outcome->memo_hit ? 1 : 0;
        continue;
      }
      // The miss's only unpack: its key, into its batch slot.
      const std::size_t slot = slots.size();
      slots.resize(slot + static_cast<std::size_t>(pixels_per_window));
      util::unpack_bits(key_.data(),
                        static_cast<std::size_t>(pixels_per_window), 0.0f,
                        1.0f, slots.data() + slot);
      if (keep_pixels_) {
        batch_pixels.push_back(key_);
      }
      ++next_entry_;
      ++count;
    }
    const double raster_seconds = timer.seconds();
    stats_.raster_seconds += raster_seconds;
    stats_.windows += windows_in_batch;
    windows_seen_ += windows_in_batch;
    stats_.dedup_hits += hits_in_batch;
    stats_.memo_hits += memo_hits_in_batch;
    static obs::Histogram& raster_histogram =
        obs::MetricsRegistry::global().histogram(
            "scan.raster_seconds", obs::default_latency_buckets());
    raster_histogram.observe(raster_seconds);
    static obs::Counter& windows_counter =
        obs::MetricsRegistry::global().counter("scan.windows");
    static obs::Counter& hits_counter =
        obs::MetricsRegistry::global().counter("scan.dedup.hits");
    static obs::Counter& misses_counter =
        obs::MetricsRegistry::global().counter("scan.dedup.misses");
    static obs::Counter& memo_hits_counter =
        obs::MetricsRegistry::global().counter("scan.memo.hits");
    windows_counter.increment(static_cast<std::uint64_t>(windows_in_batch));
    hits_counter.increment(static_cast<std::uint64_t>(hits_in_batch));
    memo_hits_counter.increment(
        static_cast<std::uint64_t>(memo_hits_in_batch));
    misses_counter.increment(static_cast<std::uint64_t>(count));
    if (windows_in_batch == 0) {
      return false;
    }
    if (count > 0) {
      out.images = tensor::Tensor({count, 1, grid, grid}, std::move(slots));
    } else {
      out.images = tensor::Tensor();
    }
    out.base_entry = base_entry;
    out.count = count;
    out.win_begin = win_begin;
    out.win_end = windows_seen_;
    out.entries.assign(
        window_entry_.begin() + static_cast<std::ptrdiff_t>(win_begin),
        window_entry_.begin() + static_cast<std::ptrdiff_t>(windows_seen_));
    out.pixels = std::move(batch_pixels);
    return true;
  }

 private:
  struct WindowOutcome {
    bool is_new = false;      // a new distinct raster, left in key_
    bool memo_hit = false;    // served by the geometry memo, not rasterized
    std::int64_t entry = -1;  // entry id (existing on a dedup hit)
  };

  // One window under the scan's guard; nullopt = quarantined. The attempt
  // materializes into window_pattern_ and looks its rect list up in the
  // geometry memo; only a memo miss rasterizes, into key_. It reuses their
  // storage, candidates_ and scratch_, so a dedup hit allocates nothing. A
  // raster hit records the window's rect list on its entry if the entry
  // has none yet, so the entry's next repeat is a memo hit. Each cache
  // lookup comes after a deadline check, and RasterDedupCache::insert
  // probes its fault before mutating, so a failed attempt leaves no
  // partial state behind and the retry replays cleanly; a lookup's LRU
  // refresh is idempotent.
  std::optional<WindowOutcome> process_window(const WindowRef& ref) {
    return run_guarded(
        config_, config_.window_deadline_ms, stats_.retries,
        [&](const AttemptClock& clock) {
          util::fault_maybe_stall(util::FaultPoint::kScanRasterStall);
          if (util::fault_should_fail(
                  util::FaultPoint::kScanRasterCompute)) {
            throw std::runtime_error("injected raster compute fault");
          }
          stream_.materialize(ref, window_pattern_, candidates_);
          const WindowGeometry geometry = window_pattern_.rects();
          const std::uint64_t geometry_hash = hash_geometry(geometry);
          clock.check_deadline();
          const std::int64_t memo = cache_.find_geometry(geometry_hash,
                                                         geometry);
          if (memo >= 0) {
            return WindowOutcome{.memo_hit = true, .entry = memo};
          }
          layout::rasterize_bits(
              window_pattern_,
              layout::Rect{0, 0, stream_.size_nm(), stream_.size_nm()},
              config_.grid, scratch_, key_);
          clock.check_deadline();
          const std::uint64_t hash = hash_raster(key_);
          const std::int64_t cached = cache_.find(hash, key_);
          if (cached >= 0) {
            cache_.attach_geometry(hash, key_, geometry_hash, geometry);
            return WindowOutcome{.entry = cached};
          }
          cache_.insert(hash, key_, next_entry_);
          return WindowOutcome{.is_new = true, .entry = next_entry_};
        });
  }

  ScanConfig config_;
  ClipWindowStream stream_;
  RasterDedupCache cache_;
  // Per-window buffers, reused from window to window.
  layout::Pattern window_pattern_;         // the window's clipped geometry
  std::vector<std::uint32_t> candidates_;  // the stream's candidate scratch
  layout::RasterScratch scratch_;          // coverage buffers
  RasterKey key_;  // the packed raster of the last window rasterized
  bool keep_pixels_;
  ScanStats& stats_;
  std::vector<std::int64_t> window_entry_;  // window index -> entry id
  std::int64_t next_entry_ = 0;
  std::int64_t windows_seen_ = 0;
};

void throw_if_abort_armed(const char* where) {
  if (util::fault_should_fail(util::FaultPoint::kScanAbort)) {
    throw ScanAborted(std::string("injected scan abort ") + where);
  }
}

}  // namespace

ScanPipeline::ScanPipeline(const ScanConfig& config,
                           BatchClassifier classifier)
    : config_(config), classifier_(std::move(classifier)) {
  HOTSPOT_CHECK_GT(config_.window_nm, 0);
  HOTSPOT_CHECK_GE(config_.step_nm, 0);
  HOTSPOT_CHECK_GT(config_.grid, 0);
  HOTSPOT_CHECK_GT(config_.batch_size, 0);
  HOTSPOT_CHECK_GE(config_.max_retries, 0);
  HOTSPOT_CHECK_GE(config_.retry_backoff_ms, 0);
  HOTSPOT_CHECK_GE(config_.window_deadline_ms, 0);
  HOTSPOT_CHECK(classifier_ != nullptr) << "scan needs a classifier";
  if (config_.resume) {
    HOTSPOT_CHECK(!config_.journal_path.empty())
        << "resume needs a journal_path";
  }
}

ScanResult ScanPipeline::scan(const layout::Pattern& chip) {
  util::Stopwatch total_timer;
  ScanResult result;
  BatchProducer producer(config_, chip, result.stats);
  const ClipWindowStream& stream = producer.stream();
  result.cols = stream.cols();
  result.rows = stream.rows();
  result.origin_x = stream.origin_x();
  result.origin_y = stream.origin_y();
  result.window_nm = stream.size_nm();
  result.step_nm = stream.step_nm();
  const std::int64_t window_count = stream.window_count();

  // One verdict slot per *distinct* raster; windows map into it through
  // window_entry. Sized for the worst case (no duplicates). -1 marks an
  // entry whose classification was quarantined.
  std::vector<int> entry_verdicts(static_cast<std::size_t>(window_count), 0);

  // Journal setup + recovery. The recovered state seeds the producer and
  // entry_verdicts once; from then on the journal file is the only record.
  const bool journaling = !config_.journal_path.empty();
  ScanJournal journal;
  if (journaling) {
    JournalMeta meta;
    meta.chip_fingerprint = chip_fingerprint(chip);
    meta.window_nm = stream.size_nm();
    meta.step_nm = stream.step_nm();
    meta.grid = config_.grid;
    meta.cols = stream.cols();
    meta.rows = stream.rows();
    meta.origin_x = stream.origin_x();
    meta.origin_y = stream.origin_y();
    meta.batch_size = config_.batch_size;
    meta.dedup = 1;  // scans always deduplicate
    meta.dedup_max_entries = config_.dedup_max_entries;
    meta.dedup_max_bytes = config_.dedup_max_bytes;
    JournalState recovered;
    const util::IoResult opened = journal.open(
        config_.journal_path, meta, config_.resume, &recovered);
    if (!opened.ok()) {
      throw std::runtime_error("scan journal (" +
                               std::string(util::io_status_name(
                                   opened.status)) +
                               "): " + opened.message);
    }
    if (recovered.windows_done > 0) {
      producer.adopt(recovered);
      std::copy(recovered.entry_verdicts.begin(),
                recovered.entry_verdicts.end(), entry_verdicts.begin());
      result.stats.resume_skipped = recovered.windows_done;
      static obs::Counter& resume_counter =
          obs::MetricsRegistry::global().counter("scan.resume.skipped");
      resume_counter.increment(
          static_cast<std::uint64_t>(recovered.windows_done));
    }
  }

  static obs::Counter& batches_counter =
      obs::MetricsRegistry::global().counter("scan.batches");
  std::int64_t consumer_retries = 0;

  // Classifies one batch under the scan's guard, then journals it. Runs on
  // the calling thread only.
  auto classify_batch = [&](const BatchPlan& plan) {
    throw_if_abort_armed("before classify");
    std::vector<int> verdicts;
    if (plan.count > 0) {
      HOTSPOT_TRACE_SPAN("scan.batch.infer");
      // Deadline: the per-window budget times the batch's occupancy.
      std::optional<std::vector<int>> classified = run_guarded(
          config_,
          static_cast<double>(config_.window_deadline_ms) *
              static_cast<double>(plan.count),
          consumer_retries, [&](const AttemptClock& clock) {
            // The predict-side chaos probes (DESIGN.md §13), whatever the
            // classifier: an armed stall sleeps inside the attempt's
            // deadline, an armed compute fault throws the way a backend
            // failure would.
            util::fault_maybe_stall(util::FaultPoint::kScanPredictStall);
            if (util::fault_should_fail(
                    util::FaultPoint::kScanPredictCompute)) {
              throw std::runtime_error("injected predict compute fault");
            }
            std::vector<int> labels = classifier_(plan.images);
            HOTSPOT_CHECK_EQ(static_cast<std::int64_t>(labels.size()),
                             plan.count)
                << "classifier returned the wrong number of labels";
            clock.check_deadline();
            const double batch_seconds = clock.seconds();
            result.stats.infer_seconds += batch_seconds;
            ++result.stats.batches;
            batches_counter.increment();
            static obs::Histogram& batch_histogram =
                obs::MetricsRegistry::global().histogram(
                    "scan.batch_seconds", obs::default_latency_buckets());
            batch_histogram.observe(batch_seconds);
            return labels;
          });
      // A batch that fails past the budget quarantines every entry in it
      // (verdict -1); partial results for the rest of the scan survive.
      verdicts = classified ? std::move(*classified)
                            : std::vector<int>(
                                  static_cast<std::size_t>(plan.count), -1);
      for (std::int64_t i = 0; i < plan.count; ++i) {
        entry_verdicts[static_cast<std::size_t>(plan.base_entry + i)] =
            verdicts[static_cast<std::size_t>(i)];
      }
    }
    throw_if_abort_armed("before journal append");
    if (journaling) {
      std::vector<std::int32_t> verdicts32(verdicts.begin(), verdicts.end());
      const util::IoResult appended = journal.append_batch(
          plan.win_begin, plan.win_end, plan.base_entry, plan.entries,
          verdicts32, plan.pixels);
      if (!appended.ok()) {
        throw std::runtime_error("scan journal (write-failed): " +
                                 appended.message);
      }
    }
    throw_if_abort_armed("after journal append");
  };

  if (window_count > 0) {
    // Producer on a helper thread, classifier on the calling thread (the
    // thread pool's single client). The queue is the double buffer.
    BatchQueue queue(2);
    std::exception_ptr producer_error;
    std::thread producer_thread([&] {
      try {
        BatchPlan plan;
        while (producer.next_batch(plan)) {
          if (!queue.push(std::move(plan))) {
            return;  // consumer aborted
          }
        }
      } catch (...) {
        producer_error = std::current_exception();
      }
      queue.close();
    });
    try {
      while (std::optional<BatchPlan> plan = queue.pop()) {
        classify_batch(*plan);
      }
    } catch (...) {
      queue.abort();
      producer_thread.join();
      result.stats.retries += consumer_retries;
      throw;
    }
    producer_thread.join();
    if (producer_error) {
      std::rethrow_exception(producer_error);
    }
  }
  result.stats.retries += consumer_retries;

  journal.close();

  // Replay verdicts back onto the window grid; quarantined windows (no
  // entry, or an entry whose classification failed) get a conservative 0
  // and are reported explicitly.
  result.labels.resize(static_cast<std::size_t>(window_count));
  const std::vector<std::int64_t>& window_entry = producer.window_entry();
  for (std::int64_t w = 0; w < window_count; ++w) {
    const std::int64_t entry = window_entry[static_cast<std::size_t>(w)];
    const int verdict =
        entry < 0 ? -1 : entry_verdicts[static_cast<std::size_t>(entry)];
    if (verdict < 0) {
      result.labels[static_cast<std::size_t>(w)] = 0;
      result.quarantined_windows.push_back(w);
    } else {
      result.labels[static_cast<std::size_t>(w)] = verdict;
    }
  }
  result.stats.quarantined =
      static_cast<std::int64_t>(result.quarantined_windows.size());
  if (result.stats.quarantined > 0) {
    static obs::Counter& quarantined_counter =
        obs::MetricsRegistry::global().counter("scan.quarantined");
    quarantined_counter.increment(
        static_cast<std::uint64_t>(result.stats.quarantined));
  }
  result.stats.unique_windows = result.stats.windows - result.stats.dedup_hits;
  result.regions = merge_flagged_windows(
      result.labels, result.cols, result.rows, result.origin_x,
      result.origin_y, result.window_nm, result.step_nm);
  result.stats.total_seconds = total_timer.seconds();
  return result;
}

}  // namespace hotspot::scan
