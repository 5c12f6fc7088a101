// The JournalMeta ScanPipeline::scan derives for (chip, config), so tests
// can read a scan's journal back with ScanJournal::recover.
#pragma once

#include "scan/journal.h"
#include "scan/pipeline.h"
#include "scan/window_stream.h"

namespace hotspot::scan {

inline JournalMeta make_meta(const layout::Pattern& chip,
                             const ScanConfig& config) {
  const ClipWindowStream stream(
      chip, config.window_nm,
      config.step_nm > 0 ? config.step_nm : config.window_nm);
  JournalMeta meta;
  meta.chip_fingerprint = chip_fingerprint(chip);
  meta.window_nm = stream.size_nm();
  meta.step_nm = stream.step_nm();
  meta.grid = config.grid;
  meta.cols = stream.cols();
  meta.rows = stream.rows();
  meta.origin_x = stream.origin_x();
  meta.origin_y = stream.origin_y();
  meta.batch_size = config.batch_size;
  meta.dedup = 1;
  meta.dedup_max_entries = config.dedup_max_entries;
  meta.dedup_max_bytes = config.dedup_max_bytes;
  return meta;
}

}  // namespace hotspot::scan
