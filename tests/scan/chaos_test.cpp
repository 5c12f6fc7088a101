// Chaos harness for the fault-tolerant scan (DESIGN.md §13).
//
// The central property: a scan killed at ANY point and resumed from its
// journal produces bit-identical labels, regions, and ODST to an
// uninterrupted run. The kill is the kScanAbort fault point (three probe
// sites per batch: before classification, before the journal append, after
// it), swept exhaustively and hammered randomly. Around that, the
// per-window fault points (compute faults, allocation failure, stalls past
// the deadline) drive the retry and quarantine paths: a transient fault
// must cost only a retry, a persistent one must quarantine the window —
// never hang, never silently drop it, never corrupt its neighbours.
//
// Journal files land in $HOTSPOT_CHAOS_DIR when set (CI uploads that
// directory on failure) and the gtest temp dir otherwise.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/brnn.h"
#include "dataset/patterns.h"
#include "layout/geometry.h"
#include "obs/metrics.h"
#include "scan/journal.h"
#include "scan/pipeline.h"
#include "support/scan_journal_meta.h"
#include "support/test_support.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace hotspot::scan {
namespace {

using layout::Pattern;

std::string chaos_dir() {
  const char* dir = std::getenv("HOTSPOT_CHAOS_DIR");
  return dir != nullptr && *dir != '\0' ? std::string(dir)
                                        : test_support::test_dir();
}

std::string journal_path(const char* name) {
  return chaos_dir() + "/" + name;
}

void remove_journal(const std::string& path) { std::remove(path.c_str()); }

// Deterministic per-sample-independent classifier, cheap enough for the
// kill sweeps. It probes nothing: the pipeline probes the predict-side
// fault points around every classifier call.
ScanPipeline::BatchClassifier density_classifier() {
  return [](const tensor::Tensor& images) {
    const std::int64_t n = images.dim(0);
    const std::int64_t pixels = images.dim(2) * images.dim(3);
    std::vector<int> labels(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      double sum = 0.0;
      const float* data = images.data() + i * pixels;
      for (std::int64_t p = 0; p < pixels; ++p) {
        sum += static_cast<double>(data[p]);
      }
      labels[static_cast<std::size_t>(i)] =
          sum > 0.1 * static_cast<double>(pixels) ? 1 : 0;
    }
    return labels;
  };
}

// A chip of repeated + unique tiles: repeats exercise the dedup cache (and
// with the tight entry cap below, LRU eviction), uniques keep batches full.
Pattern build_chip(int tiles_per_side) {
  dataset::PatternParams params;
  util::Rng rng(77);
  const Pattern base = dataset::dense_lines(params, rng);
  Pattern chip;
  for (int ty = 0; ty < tiles_per_side; ++ty) {
    for (int tx = 0; tx < tiles_per_side; ++tx) {
      Pattern tile = ((tx + ty) % 2 == 0) ? base
                                          : dataset::dense_lines(params, rng);
      tile.translate(tx * params.clip_nm, ty * params.clip_nm);
      for (const auto& rect : tile.rects()) {
        chip.add(rect);
      }
    }
  }
  return chip;
}

// Small batches (more kill sites), a tight dedup cap (evictions must replay
// deterministically through resume), no retry backoff (keep the sweep fast).
ScanConfig chaos_config() {
  ScanConfig config;
  config.window_nm = 1024;  // PatternParams default clip_nm
  config.grid = 16;
  config.batch_size = 2;
  config.dedup_max_entries = 3;
  config.retry_backoff_ms = 0;
  return config;
}

void expect_same_result(const ScanResult& actual,
                        const ScanResult& reference, const char* context) {
  EXPECT_EQ(actual.labels, reference.labels) << context;
  ASSERT_EQ(actual.regions.size(), reference.regions.size()) << context;
  for (std::size_t i = 0; i < actual.regions.size(); ++i) {
    EXPECT_EQ(actual.regions[i].bounds, reference.regions[i].bounds)
        << context << " region " << i;
    EXPECT_EQ(actual.regions[i].window_count,
              reference.regions[i].window_count)
        << context << " region " << i;
  }
  EXPECT_DOUBLE_EQ(actual.odst(10.0, 0.5), reference.odst(10.0, 0.5))
      << context;
}

ScanResult reference_result(const Pattern& chip, const ScanConfig& base) {
  ScanConfig config = base;
  config.journal_path.clear();
  config.resume = false;
  ScanPipeline pipeline(config, density_classifier());
  return pipeline.scan(chip);
}

TEST(ScanChaos, JournalingItselfDoesNotChangeResults) {
  util::ScopedFaultInjection guard;
  const Pattern chip = build_chip(3);
  const ScanResult reference = reference_result(chip, chaos_config());
  const std::string path = journal_path("chaos_plain.journal");
  remove_journal(path);
  ScanConfig config = chaos_config();
  config.journal_path = path;
  ScanPipeline pipeline(config, density_classifier());
  const ScanResult journaled = pipeline.scan(chip);
  expect_same_result(journaled, reference, "journaled");
  EXPECT_EQ(journaled.stats.quarantined, 0);
  remove_journal(path);
}

// The journal is the scan's only recovery record: neither a journaled scan
// nor its resume leaves any file beside it.
TEST(ScanChaos, JournaledScanWritesNoSnapshot) {
  util::ScopedFaultInjection guard;
  const Pattern chip = build_chip(3);
  const ScanResult reference = reference_result(chip, chaos_config());
  const std::string path = journal_path("chaos_no_snapshot.journal");
  const std::string snapshot = path + ".snap";
  remove_journal(path);
  std::remove(snapshot.c_str());
  ScanConfig config = chaos_config();
  config.journal_path = path;

  util::fault_arm(util::FaultPoint::kScanAbort, 5);
  try {
    ScanPipeline pipeline(config, density_classifier());
    pipeline.scan(chip);
    FAIL() << "abort fault did not fire";
  } catch (const ScanAborted&) {
  }
  util::fault_clear_all();
  EXPECT_EQ(util::file_size_of(snapshot), -1) << "snapshot after a kill";

  config.resume = true;
  ScanPipeline pipeline(config, density_classifier());
  const ScanResult resumed = pipeline.scan(chip);
  expect_same_result(resumed, reference, "resumed");
  EXPECT_GT(util::file_size_of(path), 0);
  EXPECT_EQ(util::file_size_of(snapshot), -1) << "snapshot after a resume";
  remove_journal(path);
}

// The acceptance sweep: kill at every abort site (k = 1, 2, ... until a
// scan runs to completion), resume, and demand bit-identical output plus
// resume_skipped exactly matching what the journal recovered.
TEST(ScanChaos, KillAndResumeSweepIsBitIdentical) {
  util::ScopedFaultInjection guard;
  const Pattern chip = build_chip(3);
  const ScanConfig base = chaos_config();
  const ScanResult reference = reference_result(chip, base);
  const JournalMeta meta = make_meta(chip, base);
  const std::string path = journal_path("chaos_sweep.journal");

  bool sweep_exhausted = false;
  for (int kill_at = 1; kill_at <= 64 && !sweep_exhausted; ++kill_at) {
    remove_journal(path);
    ScanConfig config = base;
    config.journal_path = path;

    util::fault_arm(util::FaultPoint::kScanAbort, kill_at);
    bool aborted = false;
    try {
      ScanPipeline pipeline(config, density_classifier());
      const ScanResult uninterrupted = pipeline.scan(chip);
      // kill_at exceeded the scan's probe count: the scan completed and
      // the sweep has covered every kill site.
      expect_same_result(uninterrupted, reference, "post-sweep");
      sweep_exhausted = true;
    } catch (const ScanAborted&) {
      aborted = true;
    }
    util::fault_clear_all();
    if (!aborted) {
      continue;
    }

    // What did the journal durably capture before the kill?
    JournalState recovered;
    ASSERT_TRUE(ScanJournal::recover(path, meta, &recovered).ok())
        << "kill_at " << kill_at;

    ScanConfig resume_config = config;
    resume_config.resume = true;
    ScanPipeline pipeline(resume_config, density_classifier());
    const ScanResult resumed = pipeline.scan(chip);
    const std::string context = "kill_at " + std::to_string(kill_at);
    expect_same_result(resumed, reference, context.c_str());
    EXPECT_EQ(resumed.stats.resume_skipped, recovered.windows_done)
        << context;
    EXPECT_EQ(resumed.stats.windows + resumed.stats.resume_skipped,
              static_cast<std::int64_t>(reference.labels.size()))
        << context;
    // The resumed run counts only the entries it introduced.
    EXPECT_EQ(resumed.stats.unique_windows + recovered.entry_count(),
              reference.stats.unique_windows)
        << context;
  }
  EXPECT_TRUE(sweep_exhausted)
      << "64 kill sites was not enough to reach a completed scan";
  remove_journal(path);
}

// Randomized crash storms: kill at a random site, resume, kill again —
// until a run finally completes. However many times it dies, the final
// output must be the uninterrupted one.
TEST(ScanChaos, RandomizedCrashStormConverges) {
  util::ScopedFaultInjection guard;
  const Pattern chip = build_chip(4);
  const ScanConfig base = chaos_config();
  const ScanResult reference = reference_result(chip, base);
  util::Rng rng(0xC4A05);

  for (int storm = 0; storm < 3; ++storm) {
    const std::string path = journal_path("chaos_storm.journal");
    remove_journal(path);
    int kills = 0;
    bool done = false;
    for (int attempt = 0; attempt < 200 && !done; ++attempt) {
      ScanConfig config = base;
      config.journal_path = path;
      config.resume = attempt > 0;
      util::fault_arm(util::FaultPoint::kScanAbort,
                      static_cast<int>(rng.uniform_int(1, 12)));
      try {
        ScanPipeline pipeline(config, density_classifier());
        const ScanResult result = pipeline.scan(chip);
        util::fault_clear_all();
        const std::string context =
            "storm " + std::to_string(storm) + " after " +
            std::to_string(kills) + " kills";
        expect_same_result(result, reference, context.c_str());
        done = true;
      } catch (const ScanAborted&) {
        util::fault_clear_all();
        ++kills;
      }
    }
    EXPECT_TRUE(done) << "storm " << storm << " never completed";
    remove_journal(path);
  }
}

// A crash *inside* the journal append (torn record) is the nastiest kill:
// the tail frame is half-written. Resume must drop it and re-scan that
// batch, still converging to identical output.
TEST(ScanChaos, TornAppendResumesBitIdentical) {
  util::ScopedFaultInjection guard;
  const Pattern chip = build_chip(3);
  const ScanConfig base = chaos_config();
  const ScanResult reference = reference_result(chip, base);
  const std::string path = journal_path("chaos_torn.journal");
  remove_journal(path);

  ScanConfig config = base;
  config.journal_path = path;
  util::fault_arm(util::FaultPoint::kJournalWrite, 3);
  bool threw = false;
  try {
    ScanPipeline pipeline(config, density_classifier());
    pipeline.scan(chip);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  util::fault_clear_all();
  ASSERT_TRUE(threw);

  config.resume = true;
  ScanPipeline pipeline(config, density_classifier());
  const ScanResult resumed = pipeline.scan(chip);
  expect_same_result(resumed, reference, "torn append");
  remove_journal(path);
}

TEST(ScanChaos, TransientRasterFaultCostsOnlyARetry) {
  util::ScopedFaultInjection guard;
  const Pattern chip = build_chip(3);
  const ScanResult reference = reference_result(chip, chaos_config());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::MetricsSnapshot before = registry.snapshot();

  util::fault_arm(util::FaultPoint::kScanRasterCompute, 4);
  ScanPipeline pipeline(chaos_config(), density_classifier());
  const ScanResult result = pipeline.scan(chip);

  expect_same_result(result, reference, "transient raster fault");
  EXPECT_GE(result.stats.retries, 1);
  EXPECT_EQ(result.stats.quarantined, 0);
  EXPECT_TRUE(result.quarantined_windows.empty());
  const obs::MetricsSnapshot delta = registry.snapshot().delta_since(before);
  const obs::CounterSample* retries = delta.find_counter("scan.retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_EQ(retries->value,
            static_cast<std::uint64_t>(result.stats.retries));
}

TEST(ScanChaos, PersistentRasterFaultQuarantinesInsteadOfHanging) {
  util::ScopedFaultInjection guard;
  const Pattern chip = build_chip(3);
  const ScanResult reference = reference_result(chip, chaos_config());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::MetricsSnapshot before = registry.snapshot();

  // Every raster probe from the 4th onward fails: windows 1-3 scan clean
  // (one probe each), every later window exhausts its 3 attempts.
  util::fault_arm_sticky(util::FaultPoint::kScanRasterCompute, 4);
  ScanPipeline pipeline(chaos_config(), density_classifier());
  const ScanResult result = pipeline.scan(chip);

  const auto total = static_cast<std::int64_t>(reference.labels.size());
  EXPECT_EQ(result.stats.quarantined, total - 3);
  EXPECT_EQ(static_cast<std::int64_t>(result.quarantined_windows.size()),
            result.stats.quarantined);
  for (std::int64_t w = 0; w < total; ++w) {
    const auto index = static_cast<std::size_t>(w);
    if (w < 3) {
      EXPECT_EQ(result.labels[index], reference.labels[index]) << w;
    } else {
      EXPECT_EQ(result.labels[index], 0) << "quarantined window " << w;
    }
  }
  // 2 retries per quarantined window before giving up.
  EXPECT_EQ(result.stats.retries, 2 * result.stats.quarantined);
  const obs::MetricsSnapshot delta = registry.snapshot().delta_since(before);
  const obs::CounterSample* quarantined =
      delta.find_counter("scan.quarantined");
  ASSERT_NE(quarantined, nullptr);
  EXPECT_EQ(quarantined->value,
            static_cast<std::uint64_t>(result.stats.quarantined));
}

TEST(ScanChaos, AllocationFailureQuarantinesWithoutCrashing) {
  util::ScopedFaultInjection guard;
  const Pattern chip = build_chip(3);
  const ScanResult reference = reference_result(chip, chaos_config());

  // kScanAlloc probes in RasterDedupCache::insert (std::bad_alloc before
  // any mutation); sticky = the allocator never recovers.
  util::fault_arm_sticky(util::FaultPoint::kScanAlloc, 2);
  ScanPipeline pipeline(chaos_config(), density_classifier());
  const ScanResult result = pipeline.scan(chip);

  EXPECT_GT(result.stats.quarantined, 0);
  EXPECT_LT(result.stats.quarantined,
            static_cast<std::int64_t>(reference.labels.size()));
  for (const std::int64_t w : result.quarantined_windows) {
    EXPECT_EQ(result.labels[static_cast<std::size_t>(w)], 0);
  }
}

TEST(ScanChaos, TransientStallWithinDeadlineRetriesClean) {
  util::ScopedFaultInjection guard;
  const Pattern chip = build_chip(2);
  ScanConfig config = chaos_config();
  config.window_deadline_ms = 20;
  config.max_retries = 2;
  const ScanResult reference = reference_result(chip, config);

  // One stall of 60ms on the 2nd raster attempt: that attempt blows the
  // 20ms deadline, the retry runs stall-free and succeeds.
  util::fault_set_stall_ms(60);
  util::fault_arm(util::FaultPoint::kScanRasterStall, 2);
  ScanPipeline pipeline(config, density_classifier());
  const ScanResult result = pipeline.scan(chip);

  expect_same_result(result, reference, "transient stall");
  EXPECT_GE(result.stats.retries, 1);
  EXPECT_EQ(result.stats.quarantined, 0);
}

TEST(ScanChaos, StallPastDeadlineEveryAttemptQuarantines) {
  util::ScopedFaultInjection guard;
  const Pattern chip = build_chip(2);
  ScanConfig config = chaos_config();
  config.window_deadline_ms = 5;
  config.max_retries = 1;

  // The 3rd window onward stalls 40ms on every attempt — persistently
  // wedged. The deadline quarantines them; the scan still terminates.
  util::fault_set_stall_ms(40);
  util::fault_arm_sticky(util::FaultPoint::kScanRasterStall, 3);
  ScanPipeline pipeline(config, density_classifier());
  const ScanResult result = pipeline.scan(chip);

  const auto total = static_cast<std::int64_t>(result.labels.size());
  EXPECT_EQ(result.stats.quarantined, total - 2);
  for (const std::int64_t w : result.quarantined_windows) {
    EXPECT_GE(w, 2);
  }
}

TEST(ScanChaos, TransientPredictFaultRetriesClean) {
  util::ScopedFaultInjection guard;
  const Pattern chip = build_chip(3);
  const ScanResult reference = reference_result(chip, chaos_config());

  util::fault_arm(util::FaultPoint::kScanPredictCompute, 2);
  ScanPipeline pipeline(chaos_config(), density_classifier());
  const ScanResult result = pipeline.scan(chip);

  expect_same_result(result, reference, "transient predict fault");
  EXPECT_GE(result.stats.retries, 1);
  EXPECT_EQ(result.stats.quarantined, 0);
}

TEST(ScanChaos, PersistentPredictFaultQuarantinesBatches) {
  util::ScopedFaultInjection guard;
  const Pattern chip = build_chip(3);
  const ScanResult reference = reference_result(chip, chaos_config());

  // Classification fails from the 2nd batch attempt onward: batch 1 is
  // clean, every later batch's entries are quarantined.
  util::fault_arm_sticky(util::FaultPoint::kScanPredictCompute, 2);
  ScanPipeline pipeline(chaos_config(), density_classifier());
  const ScanResult result = pipeline.scan(chip);

  EXPECT_GT(result.stats.quarantined, 0);
  for (const std::int64_t w : result.quarantined_windows) {
    EXPECT_EQ(result.labels[static_cast<std::size_t>(w)], 0);
  }
  // Windows NOT quarantined kept their true verdicts.
  std::size_t q = 0;
  for (std::int64_t w = 0;
       w < static_cast<std::int64_t>(result.labels.size()); ++w) {
    if (q < result.quarantined_windows.size() &&
        result.quarantined_windows[q] == w) {
      ++q;
      continue;
    }
    EXPECT_EQ(result.labels[static_cast<std::size_t>(w)],
              reference.labels[static_cast<std::size_t>(w)])
        << w;
  }
}

// The predict-side fault points guard whatever classifier the scan runs,
// not only a test stub: a seeded compact BRNN's own predict retries a
// one-shot compute fault cleanly and quarantines batches under a sticky
// one.
TEST(ScanChaos, PredictFaultsGuardARealClassifier) {
  util::ScopedFaultInjection guard;
  constexpr std::int64_t kGrid = 32;
  util::Rng rng(5);
  core::BrnnModel model(core::BrnnConfig::compact(kGrid), rng);
  model.set_training(false);
  const ScanPipeline::BatchClassifier classify =
      [&model](const tensor::Tensor& images) { return model.predict(images); };
  ScanConfig config = chaos_config();
  config.grid = kGrid;
  const Pattern chip = build_chip(3);
  const ScanResult reference = ScanPipeline(config, classify).scan(chip);
  ASSERT_EQ(reference.stats.quarantined, 0);
  ASSERT_GT(reference.stats.batches, 1);

  util::fault_arm(util::FaultPoint::kScanPredictCompute, 2);
  const ScanResult transient = ScanPipeline(config, classify).scan(chip);
  expect_same_result(transient, reference, "one-shot predict fault");
  EXPECT_EQ(transient.stats.retries, 1);
  EXPECT_EQ(transient.stats.quarantined, 0);
  util::fault_clear_all();

  // Every batch after the first spends its whole retry budget and is
  // quarantined; the first keeps its verdicts.
  util::fault_arm_sticky(util::FaultPoint::kScanPredictCompute, 2);
  const ScanResult sticky = ScanPipeline(config, classify).scan(chip);
  EXPECT_EQ(sticky.stats.batches, 1);
  EXPECT_EQ(sticky.stats.retries,
            (reference.stats.batches - 1) * config.max_retries);
  EXPECT_GT(sticky.stats.quarantined, 0);
  std::size_t q = 0;
  for (std::size_t w = 0; w < sticky.labels.size(); ++w) {
    const bool quarantined = q < sticky.quarantined_windows.size() &&
                             sticky.quarantined_windows[q] ==
                                 static_cast<std::int64_t>(w);
    q += quarantined ? 1 : 0;
    EXPECT_EQ(sticky.labels[w], quarantined ? 0 : reference.labels[w]) << w;
  }
}

// Quarantine state must survive the journal: a window quarantined before a
// crash stays quarantined (and reported) after resume — resumed runs never
// pretend a failed window was scanned clean.
TEST(ScanChaos, QuarantinePersistsThroughResume) {
  util::ScopedFaultInjection guard;
  const Pattern chip = build_chip(3);
  const std::string path = journal_path("chaos_quarantine.journal");
  remove_journal(path);
  ScanConfig config = chaos_config();
  config.journal_path = path;

  // Windows beyond the 2nd quarantine (sticky raster fault). Quarantined
  // windows never fill a batch slot, so the scan collapses to two batches:
  // [0,2) with entries {0,1}, then one entry-less batch spanning every
  // quarantined window. The kill lands on the 6th abort probe — directly
  // after that second batch's journal append — so the journal holds the
  // quarantined windows when the scan dies.
  util::fault_arm_sticky(util::FaultPoint::kScanRasterCompute, 3);
  util::fault_arm(util::FaultPoint::kScanAbort, 6);
  bool aborted = false;
  try {
    ScanPipeline pipeline(config, density_classifier());
    pipeline.scan(chip);
  } catch (const ScanAborted&) {
    aborted = true;
  }
  util::fault_clear_all();
  ASSERT_TRUE(aborted);

  const JournalMeta meta = make_meta(chip, config);
  JournalState recovered;
  ASSERT_TRUE(ScanJournal::recover(path, meta, &recovered).ok());
  std::int64_t journaled_quarantined = 0;
  for (const std::int64_t entry : recovered.window_entry) {
    journaled_quarantined += entry < 0 ? 1 : 0;
  }
  ASSERT_GT(journaled_quarantined, 0)
      << "kill landed before any quarantined window was journaled";

  // Resume with faults cleared: recovered quarantined windows must still be
  // reported even though this run's windows all scan clean.
  config.resume = true;
  ScanPipeline pipeline(config, density_classifier());
  const ScanResult resumed = pipeline.scan(chip);
  EXPECT_GE(resumed.stats.quarantined, journaled_quarantined);
  for (std::int64_t w = 0; w < recovered.windows_done; ++w) {
    if (recovered.window_entry[static_cast<std::size_t>(w)] < 0) {
      EXPECT_EQ(resumed.labels[static_cast<std::size_t>(w)], 0) << w;
    }
  }
  remove_journal(path);
}

TEST(ScanChaos, ResumeSkippedCounterIsPublished) {
  util::ScopedFaultInjection guard;
  const Pattern chip = build_chip(3);
  const std::string path = journal_path("chaos_counter.journal");
  remove_journal(path);
  ScanConfig config = chaos_config();
  config.journal_path = path;

  util::fault_arm(util::FaultPoint::kScanAbort, 5);
  try {
    ScanPipeline pipeline(config, density_classifier());
    pipeline.scan(chip);
    FAIL() << "abort fault did not fire";
  } catch (const ScanAborted&) {
  }
  util::fault_clear_all();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::MetricsSnapshot before = registry.snapshot();
  config.resume = true;
  ScanPipeline pipeline(config, density_classifier());
  const ScanResult resumed = pipeline.scan(chip);
  ASSERT_GT(resumed.stats.resume_skipped, 0);
  const obs::MetricsSnapshot delta = registry.snapshot().delta_since(before);
  const obs::CounterSample* skipped =
      delta.find_counter("scan.resume.skipped");
  ASSERT_NE(skipped, nullptr);
  EXPECT_EQ(skipped->value,
            static_cast<std::uint64_t>(resumed.stats.resume_skipped));
  remove_journal(path);
}

// The byte cap evicts by key bytes alone, so a resume, whose rebuilt
// cache has no geometry, evicts exactly as the uninterrupted scan did: the
// sweep kills at every site and demands the uninterrupted journal, window
// for window and key for key, plus geometry-memo hits in every resumed run
// (the chip ends in four windows of one tile).
TEST(ScanChaos, KillAndResumeUnderByteCapIsBitIdentical) {
  util::ScopedFaultInjection guard;
  dataset::PatternParams params;
  util::Rng rng(91);
  const std::vector<Pattern> library = {
      dataset::dense_lines(params, rng), dataset::contacts(params, rng),
      dataset::jog(params, rng), dataset::tip_to_tip(params, rng)};
  // Tile 0's window 3 is a memo hit whose LRU refresh decides what tile 2
  // evicts next, and a kill after the first batch makes the resume serve
  // that window by raster instead.
  const int order[] = {0, 0, 1, 0, 2, 0, 3, 1, 0, 2, 0, 3, 3,
                       1, 0, 2, 0, 1, 0, 3, 2, 0, 0, 0, 0};
  constexpr std::int64_t kSide = 5;
  Pattern chip;
  chip.add(layout::Rect{0, 0, params.grid_nm, params.grid_nm});  // pins the grid
  for (std::int64_t i = 0; i < kSide * kSide; ++i) {
    Pattern tile = library[static_cast<std::size_t>(order[i])];
    tile.translate(i % kSide * params.clip_nm, i / kSide * params.clip_nm);
    for (const auto& rect : tile.rects()) {
      chip.add(rect);
    }
  }
  ScanConfig base = chaos_config();
  base.dedup_max_entries = 0;
  base.dedup_max_bytes = 80;  // two 32-byte keys at grid 16
  const JournalMeta meta = make_meta(chip, base);
  const std::string path = journal_path("chaos_byte_cap.journal");

  // The uninterrupted scan, journaled for its per-window entries and keys.
  remove_journal(path);
  ScanConfig journaled = base;
  journaled.journal_path = path;
  const ScanResult reference =
      ScanPipeline(journaled, density_classifier()).scan(chip);
  JournalState reference_state;
  ASSERT_TRUE(ScanJournal::recover(path, meta, &reference_state).ok());
  ASSERT_GT(reference.stats.memo_hits, 0);
  ASSERT_GT(static_cast<std::int64_t>(reference_state.entry_pixels.size()), 5)
      << "the byte cap never made a raster re-enter";

  bool sweep_exhausted = false;
  for (int kill_at = 1; kill_at <= 128 && !sweep_exhausted; ++kill_at) {
    remove_journal(path);
    util::fault_arm(util::FaultPoint::kScanAbort, kill_at);
    try {
      ScanPipeline(journaled, density_classifier()).scan(chip);
      sweep_exhausted = true;
    } catch (const ScanAborted&) {
    }
    util::fault_clear_all();
    if (sweep_exhausted) {
      break;
    }
    ScanConfig resume_config = journaled;
    resume_config.resume = true;
    const ScanResult resumed =
        ScanPipeline(resume_config, density_classifier()).scan(chip);
    const std::string context = "kill_at " + std::to_string(kill_at);
    expect_same_result(resumed, reference, context.c_str());
    JournalState state;
    ASSERT_TRUE(ScanJournal::recover(path, meta, &state).ok()) << context;
    EXPECT_EQ(state.window_entry, reference_state.window_entry) << context;
    EXPECT_EQ(state.entry_pixels, reference_state.entry_pixels) << context;
    EXPECT_EQ(state.entry_verdicts, reference_state.entry_verdicts)
        << context;
    if (resumed.stats.windows > 0) {
      EXPECT_GT(resumed.stats.memo_hits, 0) << context;
    }
  }
  EXPECT_TRUE(sweep_exhausted)
      << "128 kill sites was not enough to reach a completed scan";
  remove_journal(path);
}

}  // namespace
}  // namespace hotspot::scan
