#include "scan/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/brnn.h"
#include "core/trainer.h"
#include "dataset/dataset.h"
#include "dataset/patterns.h"
#include "layout/clip.h"
#include "layout/raster.h"
#include "obs/metrics.h"
#include "scan/dedup_cache.h"
#include "scan/journal.h"
#include "support/scan_journal_meta.h"
#include "support/test_support.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace hotspot::scan {
namespace {

using layout::Pattern;
using layout::Rect;

// Deterministic, per-sample-independent stand-in for the detector: flags a
// window when more than 10% of its pixels are drawn.
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

// The eager reference: extract_clips + per-clip rasterize + the same rule.
std::vector<int> eager_density_labels(const Pattern& chip,
                                      const ScanConfig& config) {
  const auto clips = layout::extract_clips(
      chip, config.window_nm,
      config.step_nm > 0 ? config.step_nm : config.window_nm);
  std::vector<int> labels;
  const std::int64_t pixels = config.grid * config.grid;
  for (const auto& clip : clips) {
    const tensor::Tensor raster = clip.binary(config.grid);
    double sum = 0.0;
    for (std::int64_t p = 0; p < pixels; ++p) {
      sum += static_cast<double>(raster.data()[p]);
    }
    labels.push_back(sum > 0.1 * static_cast<double>(pixels) ? 1 : 0);
  }
  return labels;
}

// A chip of repeated + unique tiles: repeats exercise the dedup cache,
// uniques make sure cold rasters still classify.
Pattern build_chip(int tiles_per_side, bool repeat_one_tile) {
  dataset::PatternParams params;
  util::Rng rng(77);
  const Pattern base = dataset::dense_lines(params, rng);
  Pattern chip;
  for (int ty = 0; ty < tiles_per_side; ++ty) {
    for (int tx = 0; tx < tiles_per_side; ++tx) {
      Pattern tile = repeat_one_tile ? base
                                     : dataset::dense_lines(params, rng);
      tile.translate(tx * params.clip_nm, ty * params.clip_nm);
      for (const auto& rect : tile.rects()) {
        chip.add(rect);
      }
    }
  }
  return chip;
}

ScanConfig small_config() {
  ScanConfig config;
  config.window_nm = 1024;  // PatternParams default clip_nm
  config.grid = 16;
  config.batch_size = 8;
  return config;
}

TEST(ScanPipeline, MatchesEagerExtractAndPredict) {
  const Pattern chip = build_chip(3, /*repeat_one_tile=*/false);
  const ScanConfig config = small_config();
  ScanPipeline pipeline(config, density_classifier());
  const ScanResult result = pipeline.scan(chip);
  EXPECT_EQ(result.labels, eager_density_labels(chip, config));
  EXPECT_EQ(result.stats.windows,
            static_cast<std::int64_t>(result.labels.size()));
  EXPECT_EQ(result.stats.unique_windows + result.stats.dedup_hits,
            result.stats.windows);
}

TEST(ScanPipeline, OverlappingStrideMatchesEager) {
  const Pattern chip = build_chip(2, /*repeat_one_tile=*/false);
  ScanConfig config = small_config();
  config.step_nm = 512;  // overlapping scan
  ScanPipeline pipeline(config, density_classifier());
  const ScanResult result = pipeline.scan(chip);
  EXPECT_EQ(result.labels, eager_density_labels(chip, config));
}

TEST(ScanPipeline, DedupDoesNotChangeVerdicts) {
  // Cache hits serve the repeated tile, and every verdict is still the one
  // the eager per-window classification gives.
  const Pattern chip = build_chip(3, /*repeat_one_tile=*/true);
  const ScanConfig config = small_config();
  ScanPipeline pipeline(config, density_classifier());
  const ScanResult result = pipeline.scan(chip);
  EXPECT_EQ(result.labels, eager_density_labels(chip, config));
  EXPECT_GT(result.stats.dedup_hits, 0);
}

TEST(ScanPipeline, RepeatedTileChipHitsCacheHard) {
  // The acceptance shape: a 4x4 chip of one repeated tile must serve at
  // least half its windows from the dedup cache.
  const Pattern chip = build_chip(4, /*repeat_one_tile=*/true);
  ScanPipeline pipeline(small_config(), density_classifier());
  const ScanResult result = pipeline.scan(chip);
  EXPECT_EQ(result.stats.windows, 16);
  EXPECT_GE(result.stats.dedup_hit_rate(), 0.5);
}

TEST(ScanPipeline, DeterministicAtAnyThreadCount) {
  const Pattern chip = build_chip(3, /*repeat_one_tile=*/false);
  const ScanConfig config = small_config();
  const int saved = util::parallel_threads();
  util::set_parallel_threads(1);
  ScanPipeline single(config, density_classifier());
  const ScanResult one = single.scan(chip);
  util::set_parallel_threads(4);
  ScanPipeline pooled(config, density_classifier());
  const ScanResult four = pooled.scan(chip);
  util::set_parallel_threads(saved);
  EXPECT_EQ(one.labels, four.labels);
  EXPECT_EQ(one.stats.dedup_hits, four.stats.dedup_hits);
}

TEST(ScanPipeline, BitIdenticalToEagerBrnnPredict) {
  // The full acceptance criterion, against the real detector: an untrained
  // compact BRNN on the packed backend classifies streamed + deduped
  // batches bit-identically to the eager dataset path.
  constexpr std::int64_t kImageSize = 32;
  util::Rng rng(5);
  core::BrnnModel model(core::BrnnConfig::compact(kImageSize), rng);
  model.set_training(false);
  model.set_backend(core::Backend::kPacked);

  const Pattern chip = build_chip(3, /*repeat_one_tile=*/false);
  ScanConfig config = small_config();
  config.grid = kImageSize;
  config.batch_size = 5;  // force several batches + a partial tail

  const auto clips = layout::extract_clips(chip, config.window_nm,
                                           config.window_nm);
  dataset::HotspotDataset eager_windows;
  for (const auto& clip : clips) {
    eager_windows.add(dataset::ClipSample::from_image(
        clip.binary(kImageSize), 0, dataset::Family::kDenseLines));
  }
  const std::vector<int> eager =
      core::predict_labels(model, eager_windows, 64);

  ScanPipeline pipeline(config, [&](const tensor::Tensor& images) {
    return model.predict(images);
  });
  const ScanResult streamed = pipeline.scan(chip);
  EXPECT_EQ(streamed.labels, eager);
}

TEST(ScanPipeline, EmptyChipYieldsEmptyResult) {
  ScanPipeline pipeline(small_config(), density_classifier());
  const ScanResult result = pipeline.scan(Pattern());
  EXPECT_TRUE(result.labels.empty());
  EXPECT_TRUE(result.regions.empty());
  EXPECT_EQ(result.stats.windows, 0);
  EXPECT_EQ(result.stats.batches, 0);
  EXPECT_EQ(result.flagged_count(), 0);
}

TEST(ScanPipeline, PublishesDedupCounters) {
  const Pattern chip = build_chip(2, /*repeat_one_tile=*/true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::MetricsSnapshot before = registry.snapshot();
  ScanPipeline pipeline(small_config(), density_classifier());
  const ScanResult result = pipeline.scan(chip);
  const obs::MetricsSnapshot delta =
      registry.snapshot().delta_since(before);
  const obs::CounterSample* windows = delta.find_counter("scan.windows");
  const obs::CounterSample* hits = delta.find_counter("scan.dedup.hits");
  const obs::CounterSample* misses = delta.find_counter("scan.dedup.misses");
  ASSERT_NE(windows, nullptr);
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(windows->value,
            static_cast<std::uint64_t>(result.stats.windows));
  EXPECT_EQ(hits->value,
            static_cast<std::uint64_t>(result.stats.dedup_hits));
  EXPECT_EQ(hits->value + misses->value, windows->value);
  // Four windows of one tile: a miss, a raster hit that records the
  // tile's rects, then two geometry-memo hits.
  const obs::CounterSample* memo_hits = delta.find_counter("scan.memo.hits");
  ASSERT_NE(memo_hits, nullptr);
  EXPECT_EQ(memo_hits->value,
            static_cast<std::uint64_t>(result.stats.memo_hits));
  EXPECT_EQ(result.stats.memo_hits, 2);
}

// --- One reference for the scan's dedup, geometry memo included ---------

// What a scan's dedup must produce, from the plainest route: every window
// of the eager extract_clips grid rasterized with rasterize_bits and looked
// up in a RasterDedupCache with the scan's caps and no geometry, entry ids
// allocated in scan order.
struct DedupReference {
  std::vector<std::int64_t> window_entry;
  std::vector<RasterKey> entry_pixels;
  std::int64_t dedup_hits = 0;
};

DedupReference reference_dedup(const Pattern& chip, const ScanConfig& config) {
  const auto clips = layout::extract_clips(
      chip, config.window_nm,
      config.step_nm > 0 ? config.step_nm : config.window_nm);
  RasterDedupCache cache(config.dedup_max_entries, config.dedup_max_bytes);
  layout::RasterScratch scratch;
  DedupReference reference;
  for (const layout::Clip& clip : clips) {
    RasterKey key;
    layout::rasterize_bits(clip.pattern, clip.window(), config.grid, scratch,
                           key);
    const std::uint64_t hash = hash_raster(key);
    const std::int64_t cached = cache.find(hash, key);
    if (cached >= 0) {
      reference.window_entry.push_back(cached);
      ++reference.dedup_hits;
      continue;
    }
    const auto entry =
        static_cast<std::int64_t>(reference.entry_pixels.size());
    cache.insert(hash, key, entry);
    reference.window_entry.push_back(entry);
    reference.entry_pixels.push_back(key);
  }
  return reference;
}

// Scans `chip` with a journal and checks what the journal recorded, and
// the scan's counts, against reference_dedup.
ScanResult expect_scan_matches_dedup_reference(const Pattern& chip,
                                               ScanConfig config,
                                               const std::string& name) {
  config.journal_path = test_support::test_path(name + ".journal");
  ScanPipeline pipeline(config, density_classifier());
  const ScanResult result = pipeline.scan(chip);
  const DedupReference reference = reference_dedup(chip, config);
  JournalState journaled;
  EXPECT_TRUE(
      ScanJournal::recover(config.journal_path, make_meta(chip, config),
                           &journaled)
          .ok())
      << name;
  EXPECT_EQ(journaled.window_entry, reference.window_entry) << name;
  EXPECT_EQ(journaled.entry_pixels, reference.entry_pixels) << name;
  const auto unique = static_cast<std::int64_t>(reference.entry_pixels.size());
  EXPECT_EQ(result.stats.dedup_hits, reference.dedup_hits) << name;
  EXPECT_EQ(result.stats.unique_windows, unique) << name;
  EXPECT_EQ(result.stats.batches,
            (unique + config.batch_size - 1) / config.batch_size)
      << name;
  EXPECT_LE(result.stats.memo_hits, result.stats.dedup_hits) << name;
  std::remove(config.journal_path.c_str());
  return result;
}

// A chip of 1024 nm tiles, tile i of `order` (row-major, `side` per row)
// drawn from `library`, with a grid-sized mark at each corner of the chip
// so the window grid stays on the tiles whatever the tiles draw.
Pattern tiled_chip(const std::vector<Pattern>& library,
                   const std::vector<int>& order, std::int64_t side) {
  constexpr std::int64_t kTile = 1024;
  Pattern chip;
  chip.add(Rect{0, 0, 8, 8});
  for (std::size_t i = 0; i < order.size(); ++i) {
    Pattern tile = library[static_cast<std::size_t>(order[i])];
    tile.translate(static_cast<std::int64_t>(i) % side * kTile,
                   static_cast<std::int64_t>(i) / side * kTile);
    for (const Rect& rect : tile.rects()) {
      chip.add(rect);
    }
  }
  const std::int64_t far = side * kTile;
  chip.add(Rect{far - 8, far - 8, far, far});
  return chip;
}

// Disjoint rects: any order gives the same raster.
Pattern plain_tile() {
  return Pattern({Rect{100, 100, 300, 900}, Rect{400, 50, 460, 1000},
                  Rect{600, 600, 1000, 700}, Rect{520, 120, 560, 180}});
}

Pattern reversed(const Pattern& pattern) {
  std::vector<Rect> rects = pattern.rects();
  std::reverse(rects.begin(), rects.end());
  return Pattern(std::move(rects));
}

// Overlapping, abutting and sub-pixel rects (a pixel is 64 nm at grid 16):
// their coverage adds into shared pixels.
Pattern overlapping_tile() {
  return Pattern({Rect{0, 0, 512, 512}, Rect{256, 256, 768, 768},
                  Rect{512, 0, 1024, 100}, Rect{700, 800, 733, 1024},
                  Rect{100, 600, 130, 630}, Rect{130, 600, 170, 630},
                  Rect{96, 610, 140, 650}});
}

std::vector<Pattern> mixed_library() {
  dataset::PatternParams params;
  util::Rng rng(31);
  return {plain_tile(), overlapping_tile(), dataset::dense_lines(params, rng),
          dataset::contacts(params, rng), reversed(overlapping_tile())};
}

TEST(ScanPipeline, RepeatedTilesMatchDedupReference) {
  const Pattern chip = build_chip(4, /*repeat_one_tile=*/true);
  const ScanResult result =
      expect_scan_matches_dedup_reference(chip, small_config(), "repeated");
  EXPECT_GT(result.stats.memo_hits, 0);
}

TEST(ScanPipeline, ReorderedRectsMissTheMemoAndHitTheRaster) {
  // The same tile drawn in two rect orders: equal rasters, unequal
  // geometry, so one order is served by the raster cache alone.
  const std::vector<Pattern> library = {plain_tile(), reversed(plain_tile())};
  const Pattern chip =
      tiled_chip(library, {0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0}, 4);
  const ScanResult result =
      expect_scan_matches_dedup_reference(chip, small_config(), "reordered");
  EXPECT_GT(result.stats.memo_hits, 0);
  EXPECT_LT(result.stats.memo_hits, result.stats.dedup_hits);
}

TEST(ScanPipeline, OverlappingAndAbuttingRectsMatchDedupReference) {
  const std::vector<Pattern> library = {overlapping_tile(),
                                        reversed(overlapping_tile())};
  const Pattern chip =
      tiled_chip(library, {0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1}, 4);
  ScanConfig config = small_config();
  expect_scan_matches_dedup_reference(chip, config, "overlapping");
  config.step_nm = 384;  // windows straddle the tiles too
  expect_scan_matches_dedup_reference(chip, config, "overlapping_stride");
}

// Runs of repeats between distinct tiles, enough to overflow three slots.
// Tile 0 turns into a memo hit by its third window; its memo hit at
// window 5 must refresh it as a raster hit would, so that tile 3 evicts
// tile 1, not tile 0.
const std::vector<int> kCapOrder = {0, 0, 0, 1, 2, 0, 3, 0, 4, 1, 1, 2, 3,
                                    3, 0, 4, 4, 2, 2, 0, 1, 3, 0, 0, 4};

TEST(ScanPipeline, EntryCapMatchesDedupReference) {
  // An evicted entry takes its geometry with it; the raster re-enters
  // under a fresh id, as in the reference.
  const Pattern chip = tiled_chip(mixed_library(), kCapOrder, 5);
  ScanConfig config = small_config();
  config.dedup_max_entries = 3;
  const ScanResult result =
      expect_scan_matches_dedup_reference(chip, config, "entry_cap");
  EXPECT_GT(result.stats.memo_hits, 0);
  const DedupReference reference = reference_dedup(chip, config);
  EXPECT_GT(static_cast<std::int64_t>(reference.entry_pixels.size()), 7)
      << "the cap never evicted a raster that came back";
}

TEST(ScanPipeline, ByteCapMatchesDedupReference) {
  const Pattern chip = tiled_chip(mixed_library(), kCapOrder, 5);
  ScanConfig config = small_config();
  config.dedup_max_bytes = 100;  // three 32-byte keys at grid 16
  const ScanResult result =
      expect_scan_matches_dedup_reference(chip, config, "byte_cap");
  EXPECT_GT(result.stats.memo_hits, 0);
}

TEST(MergeFlaggedWindows, SingleWindowRegion) {
  const std::vector<int> labels{0, 1, 0, 0};
  const auto regions =
      merge_flagged_windows(labels, 2, 2, 0, 0, 100, 100);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].bounds, (Rect{100, 0, 200, 100}));
  EXPECT_EQ(regions[0].window_count, 1);
}

TEST(MergeFlaggedWindows, DiagonalNeighborsMerge) {
  // 2x2 grid flagged on the diagonal: 8-connectivity merges both into one
  // region spanning the grid.
  const std::vector<int> labels{1, 0, 0, 1};
  const auto regions =
      merge_flagged_windows(labels, 2, 2, 0, 0, 100, 100);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].bounds, (Rect{0, 0, 200, 200}));
  EXPECT_EQ(regions[0].window_count, 2);
}

TEST(MergeFlaggedWindows, SeparatedClustersStayDistinct) {
  // 4x1 grid: windows 0 and 3 flagged, 1-2 clean — two regions.
  const std::vector<int> labels{1, 0, 0, 1};
  const auto regions =
      merge_flagged_windows(labels, 4, 1, 0, 0, 100, 100);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].bounds, (Rect{0, 0, 100, 100}));
  EXPECT_EQ(regions[1].bounds, (Rect{300, 0, 400, 100}));
}

TEST(MergeFlaggedWindows, OverlappingStrideBoundsUseWindowSize) {
  // Stride < size: adjacent flagged windows overlap; the region bounds
  // cover the union of full windows, not just the strides.
  const std::vector<int> labels{1, 1};
  const auto regions =
      merge_flagged_windows(labels, 2, 1, 1000, 2000, 100, 50);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].bounds, (Rect{1000, 2000, 1150, 2100}));
  EXPECT_EQ(regions[0].window_count, 2);
}

TEST(MergeFlaggedWindows, OdstAccounting) {
  const std::vector<int> labels{1, 1, 0, 0};
  const auto regions =
      merge_flagged_windows(labels, 4, 1, 0, 0, 100, 100);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_DOUBLE_EQ(regions[0].odst(10.0, 0.5), 2 * 10.5);
}

TEST(ScanResult, OdstCountsFlaggedLithoPlusAllEval) {
  ScanResult result;
  result.labels = {1, 0, 1, 0, 0};
  EXPECT_DOUBLE_EQ(result.odst(10.0, 1.0), 2 * 10.0 + 5 * 1.0);
}

}  // namespace
}  // namespace hotspot::scan
