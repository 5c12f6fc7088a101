// Crash-resilient scan journal (DESIGN.md §13).
//
// A full-chip scan that dies at 97% must not restart from zero. The journal
// is an append-only record of *completed* window batches:
//
//   HSJL header (scan identity: chip fingerprint + scan config + grid)
//   record 1: [u32 size | payload | u32 crc32(payload)]
//   record 2: ...
//
// Header and records are encoded with util/bytes.h, the one place the byte
// layout and the length checks live.
//
// Each batch record carries the window span the batch consumed, the
// window -> entry mapping over that span, and — for every *new* distinct
// raster the batch classified — its verdict plus its dedup key, the
// bit-packed raster, byte for byte. That is exactly the state a resumed
// scan needs to (a) skip the journaled windows, (b) rebuild the dedup cache
// (including LRU order, by replaying the access sequence), and (c) replay
// journaled verdicts into the final label grid — so a `--resume` run is
// bit-identical to an uninterrupted one.
//
// Appends are fsync'ed per record. A crash mid-append leaves a torn tail
// record whose CRC (or truncated frame) fails; recovery keeps the longest
// valid prefix and truncates the rest, which is precisely the
// last-completed-batch state. Every length field read from disk is
// validated against the scan geometry in the header before any allocation.
//
// The journal is the scan's only recovery record: recovery reads and
// CRC-checks every record, so its cost is O(journal). A `<path>.snap` file
// that older builds wrote beside the journal is neither read nor written.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "layout/geometry.h"
#include "scan/dedup_cache.h"
#include "util/atomic_file.h"

namespace hotspot::scan {

// Identity of a scan: resuming under a different chip, window grid, or
// dedup configuration would replay state that means something else, so the
// header pins all of it and open() rejects a mismatch.
struct JournalMeta {
  std::uint64_t chip_fingerprint = 0;
  std::int64_t window_nm = 0;
  std::int64_t step_nm = 0;
  std::int64_t grid = 0;
  std::int64_t cols = 0;
  std::int64_t rows = 0;
  std::int64_t origin_x = 0;
  std::int64_t origin_y = 0;
  std::int32_t batch_size = 0;
  std::uint8_t dedup = 0;  // ScanPipeline writes 1: scans always dedup
  std::uint64_t dedup_max_entries = 0;
  std::uint64_t dedup_max_bytes = 0;

  bool operator==(const JournalMeta& other) const;
  bool operator!=(const JournalMeta& other) const { return !(*this == other); }
};

// FNV-1a over the chip's rect coordinates (order-sensitive, like the scan).
std::uint64_t chip_fingerprint(const layout::Pattern& chip);

// Everything a resumed scan needs: the first `windows_done` windows of scan
// order are fully scored, entry ids below entry_count() are classified.
struct JournalState {
  std::int64_t windows_done = 0;
  std::int64_t batches = 0;  // journal records applied
  // Window index -> entry id over [0, windows_done); -1 = quarantined
  // window (rasterization failed past retry budget, no entry allocated).
  std::vector<std::int64_t> window_entry;
  // Verdict per entry id; -1 = quarantined entry (classification failed).
  std::vector<std::int32_t> entry_verdicts;
  // Packed raster key per entry id ((grid² + 7) / 8 bytes each, pad bits
  // zero), equal to the producer's key — the dedup cache's rebuild
  // material.
  std::vector<RasterKey> entry_pixels;

  std::int64_t entry_count() const {
    return static_cast<std::int64_t>(entry_verdicts.size());
  }
};

class ScanJournal {
 public:
  ScanJournal() = default;
  ~ScanJournal() { close(); }
  ScanJournal(const ScanJournal&) = delete;
  ScanJournal& operator=(const ScanJournal&) = delete;

  // Opens `path` for appending under identity `meta`.
  //
  //   resume = false: starts a fresh journal (truncates any existing
  //     file); `recovered` is reset to empty.
  //   resume = true: replays the journal's records into `recovered`,
  //     truncates any torn tail, and positions for appending. kMissing when
  //     the journal does not exist; a damaged header returns its typed
  //     status (kTruncated, kCorrupt, kBadFormat); kMismatch when the
  //     journal identifies a different scan.
  util::IoResult open(const std::string& path, const JournalMeta& meta,
                      bool resume, JournalState* recovered);

  // Appends one completed-batch record and fsyncs it. `window_entries` maps
  // windows [win_begin, win_end) to entry ids (-1 = quarantined);
  // `verdicts`/`pixels` describe the `verdicts.size()` new entries the
  // batch introduced, ids [base_entry, base_entry + verdicts.size()).
  util::IoResult append_batch(std::int64_t win_begin, std::int64_t win_end,
                              std::int64_t base_entry,
                              const std::vector<std::int64_t>& window_entries,
                              const std::vector<std::int32_t>& verdicts,
                              const std::vector<RasterKey>& pixels);

  void close();
  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  // Read-only recovery (no file mutation, no truncation): what a resume
  // would start from. Same statuses as open(resume = true).
  static util::IoResult recover(const std::string& path,
                                const JournalMeta& meta, JournalState* state);

 private:
  std::string path_;
  JournalMeta meta_;
  std::FILE* file_ = nullptr;
};

}  // namespace hotspot::scan
