#include "scan/journal.h"

#include <unistd.h>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/stopwatch.h"

namespace hotspot::scan {
namespace {

constexpr std::uint32_t kJournalMagic = 0x4C4A5348;  // "HSJL"
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint8_t kRecordBatch = 1;

using util::ByteReader;
using util::ByteWriter;
using util::IoResult;
using util::IoStatus;

std::int64_t packed_raster_bytes(std::int64_t grid) {
  return static_cast<std::int64_t>(
      util::packed_bytes(static_cast<std::size_t>(grid * grid)));
}

// Journal rasters are scan keys: the binary raster already bit-packed in
// util::pack_bits order, so they are written and read as the bytes they are.
void put_raster(ByteWriter& out, const RasterKey& pixels, std::int64_t grid) {
  HOTSPOT_CHECK_EQ(static_cast<std::int64_t>(pixels.size()),
                   packed_raster_bytes(grid))
      << "raster size does not match the journal's grid";
  out.bytes(pixels);
}

// Clears the pad bits past grid², which readers of the format ignore, so a
// recovered key equals the one the producer built from the same window.
bool read_raster(ByteReader& reader, std::int64_t grid, RasterKey& out) {
  if (!reader.bytes(static_cast<std::size_t>(packed_raster_bytes(grid)),
                    &out)) {
    return false;
  }
  const std::int64_t tail_bits = (grid * grid) % 8;
  if (tail_bits != 0) {
    out.back() &= static_cast<std::uint8_t>((1u << tail_bits) - 1u);
  }
  return true;
}

std::vector<std::uint8_t> encode_header(const JournalMeta& meta) {
  ByteWriter header;
  header.put(kJournalMagic)
      .put(kFormatVersion)
      .put(meta.chip_fingerprint)
      .put(meta.window_nm)
      .put(meta.step_nm)
      .put(meta.grid)
      .put(meta.cols)
      .put(meta.rows)
      .put(meta.origin_x)
      .put(meta.origin_y)
      .put(meta.batch_size)
      .put(meta.dedup)
      .put(meta.dedup_max_entries)
      .put(meta.dedup_max_bytes);
  header.put(util::crc32_of(header.data(), header.size()));
  return header.take();
}

std::size_t header_size() {
  static const std::size_t size = encode_header({}).size();
  return size;
}

// Validates the header_size() bytes at `header` against `expected`.
IoResult check_header(const std::uint8_t* header, const std::string& path,
                      const JournalMeta& expected) {
  ByteReader reader(header, header_size());
  std::uint32_t file_magic = 0;
  std::uint32_t version = 0;
  JournalMeta meta;
  std::uint32_t crc = 0;
  // The span is exactly one header long, so no read below can fail.
  reader.read(&file_magic);
  reader.read(&version);
  reader.read(&meta.chip_fingerprint);
  reader.read(&meta.window_nm);
  reader.read(&meta.step_nm);
  reader.read(&meta.grid);
  reader.read(&meta.cols);
  reader.read(&meta.rows);
  reader.read(&meta.origin_x);
  reader.read(&meta.origin_y);
  reader.read(&meta.batch_size);
  reader.read(&meta.dedup);
  reader.read(&meta.dedup_max_entries);
  reader.read(&meta.dedup_max_bytes);
  reader.read(&crc);
  if (file_magic != kJournalMagic) {
    return IoResult::failure(IoStatus::kBadFormat,
                             path + ": not a scan journal (bad magic)");
  }
  if (version != kFormatVersion) {
    return IoResult::failure(
        IoStatus::kBadFormat,
        path + ": unsupported journal version " + std::to_string(version));
  }
  if (crc != util::crc32_of(header, header_size() - sizeof(crc))) {
    return IoResult::failure(IoStatus::kCorrupt,
                             path + ": header CRC mismatch");
  }
  if (meta != expected) {
    return IoResult::failure(
        IoStatus::kMismatch,
        path + ": journal belongs to a different chip or scan config");
  }
  return IoResult::success();
}

// Reads `size` bytes from `file`, false on short read.
bool read_exact(std::FILE* file, void* out, std::size_t size) {
  return std::fread(out, 1, size, file) == size;
}

// Upper bound on a legitimate record payload, derived from the (already
// validated) scan identity — nothing a damaged length field claims can
// drive an allocation past it.
std::int64_t max_record_payload(const JournalMeta& meta) {
  const std::int64_t span_cap = meta.cols * meta.rows;
  const std::int64_t entries_cap =
      meta.batch_size > 0 ? meta.batch_size : span_cap;
  return 1 + 3 * 8 + 4 + span_cap * 8 +
         entries_cap * (4 + packed_raster_bytes(meta.grid));
}

// Parses one batch-record payload and applies it to `state`. Returns false,
// with `state` unchanged, when the record is structurally invalid or does
// not chain directly onto the state — the caller treats that as
// end-of-valid-data.
bool apply_record(const std::uint8_t* payload, std::size_t size,
                  const JournalMeta& meta, JournalState& state) {
  ByteReader reader(payload, size);
  std::uint8_t type = 0;
  std::int64_t win_begin = 0;
  std::int64_t win_end = 0;
  std::int64_t base_entry = 0;
  std::uint32_t new_entries = 0;
  if (!reader.read(&type) || type != kRecordBatch ||
      !reader.read(&win_begin) || !reader.read(&win_end) ||
      !reader.read(&base_entry) || !reader.read(&new_entries)) {
    return false;
  }
  const std::int64_t window_count = meta.cols * meta.rows;
  if (win_begin < 0 || win_end < win_begin || win_end > window_count ||
      base_entry < 0 ||
      static_cast<std::int64_t>(new_entries) > win_end - win_begin) {
    return false;
  }
  if (win_begin != state.windows_done || base_entry != state.entry_count()) {
    return false;  // does not chain onto the recovered state
  }
  const std::size_t windows_before = state.window_entry.size();
  const std::size_t entries_before = state.entry_verdicts.size();
  const auto reject = [&] {
    state.window_entry.resize(windows_before);
    state.entry_verdicts.resize(entries_before);
    state.entry_pixels.resize(entries_before);
    return false;
  };
  const std::int64_t span = win_end - win_begin;
  const std::int64_t entry_limit =
      base_entry + static_cast<std::int64_t>(new_entries);
  for (std::int64_t w = 0; w < span; ++w) {
    std::int64_t entry = 0;
    if (!reader.read(&entry) || entry < -1 || entry >= entry_limit) {
      return reject();
    }
    state.window_entry.push_back(entry);
  }
  for (std::uint32_t e = 0; e < new_entries; ++e) {
    std::int32_t verdict = 0;
    RasterKey pixels;
    if (!reader.read(&verdict) || verdict < -1 ||
        !read_raster(reader, meta.grid, pixels)) {
      return reject();
    }
    state.entry_verdicts.push_back(verdict);
    state.entry_pixels.push_back(std::move(pixels));
  }
  if (!reader.exhausted()) {
    return reject();  // trailing bytes inside the CRC frame
  }
  state.windows_done = win_end;
  ++state.batches;
  return true;
}

// Replays journal records from the current file position, stopping at the
// first torn or non-chaining record. Returns the byte offset just past the
// last valid record.
std::int64_t replay_records(std::FILE* file, const JournalMeta& meta,
                            JournalState& state) {
  std::int64_t valid_end = static_cast<std::int64_t>(header_size());
  const std::int64_t payload_cap = max_record_payload(meta);
  std::vector<std::uint8_t> payload;
  for (;;) {
    std::uint8_t size_bytes[4];
    if (!read_exact(file, size_bytes, sizeof(size_bytes))) {
      break;
    }
    const auto size = util::load_le<std::uint32_t>(size_bytes);
    if (static_cast<std::int64_t>(size) > payload_cap) {
      break;
    }
    payload.resize(size + sizeof(std::uint32_t));
    if (!read_exact(file, payload.data(), payload.size())) {
      break;
    }
    if (util::load_le<std::uint32_t>(payload.data() + size) !=
        util::crc32_of(payload.data(), size)) {
      break;
    }
    if (!apply_record(payload.data(), size, meta, state)) {
      break;
    }
    valid_end += static_cast<std::int64_t>(sizeof(size_bytes) +
                                           payload.size());
  }
  return valid_end;
}

// Replays the journal into `state` and reports where its valid prefix ends.
IoResult recover_state(const std::string& path, const JournalMeta& meta,
                       JournalState& state, std::int64_t& valid_end) {
  state = JournalState{};
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return IoResult::failure(IoStatus::kMissing,
                             path + ": no journal to resume");
  }
  std::vector<std::uint8_t> header_bytes(header_size());
  const IoResult header =
      read_exact(file, header_bytes.data(), header_bytes.size())
          ? check_header(header_bytes.data(), path, meta)
          : IoResult::failure(IoStatus::kTruncated,
                              path + ": header is truncated");
  if (header.ok()) {
    valid_end = replay_records(file, meta, state);
  }
  std::fclose(file);
  return header;
}

}  // namespace

bool JournalMeta::operator==(const JournalMeta& other) const {
  return chip_fingerprint == other.chip_fingerprint &&
         window_nm == other.window_nm && step_nm == other.step_nm &&
         grid == other.grid && cols == other.cols && rows == other.rows &&
         origin_x == other.origin_x && origin_y == other.origin_y &&
         batch_size == other.batch_size && dedup == other.dedup &&
         dedup_max_entries == other.dedup_max_entries &&
         dedup_max_bytes == other.dedup_max_bytes;
}

std::uint64_t chip_fingerprint(const layout::Pattern& chip) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV offset basis
  const auto mix = [&hash](std::int64_t value) {
    const auto bits = static_cast<std::uint64_t>(value);
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (bits >> shift) & 0xffu;
      hash *= 1099511628211ULL;  // FNV prime
    }
  };
  mix(static_cast<std::int64_t>(chip.rects().size()));
  for (const layout::Rect& rect : chip.rects()) {
    mix(rect.x0);
    mix(rect.y0);
    mix(rect.x1);
    mix(rect.y1);
  }
  return hash;
}

IoResult ScanJournal::open(const std::string& path, const JournalMeta& meta,
                           bool resume, JournalState* recovered) {
  HOTSPOT_CHECK(recovered != nullptr) << "open needs a recovery target";
  close();
  path_ = path;
  meta_ = meta;
  *recovered = JournalState{};

  if (resume) {
    std::int64_t valid_end = 0;
    const IoResult result = recover_state(path, meta, *recovered, valid_end);
    if (!result.ok()) {
      return result;
    }
    // Drop any torn tail so new records append at a clean frame boundary.
    const std::int64_t size = util::file_size_of(path);
    if (size > valid_end && !util::corrupt_truncate(path, valid_end)) {
      return IoResult::failure(
          IoStatus::kWriteFailed,
          path + ": cannot truncate torn journal tail");
    }
    file_ = std::fopen(path.c_str(), "ab");
    if (file_ == nullptr) {
      return IoResult::failure(IoStatus::kWriteFailed,
                               path + ": cannot open for appending");
    }
    return IoResult::success();
  }

  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return IoResult::failure(IoStatus::kWriteFailed,
                             path + ": cannot open for writing");
  }
  const std::vector<std::uint8_t> header = encode_header(meta);
  if (util::fault_should_fail(util::FaultPoint::kJournalWrite) ||
      std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    close();
    return IoResult::failure(IoStatus::kWriteFailed,
                             path + ": journal header write failed");
  }
  if (util::fault_should_fail(util::FaultPoint::kJournalFlush) ||
      std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    close();
    return IoResult::failure(IoStatus::kWriteFailed,
                             path + ": journal header flush failed");
  }
  return IoResult::success();
}

IoResult ScanJournal::append_batch(
    std::int64_t win_begin, std::int64_t win_end, std::int64_t base_entry,
    const std::vector<std::int64_t>& window_entries,
    const std::vector<std::int32_t>& verdicts,
    const std::vector<RasterKey>& pixels) {
  if (file_ == nullptr) {
    return IoResult::failure(IoStatus::kWriteFailed,
                             path_ + ": journal is not open");
  }
  HOTSPOT_CHECK_EQ(static_cast<std::int64_t>(window_entries.size()),
                   win_end - win_begin)
      << "window span does not match the entry map";
  HOTSPOT_CHECK_EQ(verdicts.size(), pixels.size())
      << "each new entry needs a verdict and its raster";
  // Append cost (including fsync) and byte volume feed the durability
  // overhead story in metrics exports; only successful appends count, a
  // failed append closes the journal anyway.
  util::Stopwatch append_timer;

  ByteWriter payload;
  payload.put(kRecordBatch)
      .put(win_begin)
      .put(win_end)
      .put(base_entry)
      .length<std::uint32_t>(verdicts.size())
      .array(window_entries.data(), window_entries.size());
  for (std::size_t e = 0; e < verdicts.size(); ++e) {
    payload.put(verdicts[e]);
    put_raster(payload, pixels[e], meta_.grid);
  }

  ByteWriter record(payload.size() + 8);
  record.length<std::uint32_t>(payload.size())
      .bytes(payload.data(), payload.size())
      .put(util::crc32_of(payload.data(), payload.size()));
  const std::vector<std::uint8_t> frame = record.take();

  if (util::fault_should_fail(util::FaultPoint::kJournalWrite)) {
    // Simulate a crash mid-append: half the frame lands, a torn tail the
    // next recovery must drop.
    std::fwrite(frame.data(), 1, frame.size() / 2, file_);
    std::fflush(file_);
    close();
    return IoResult::failure(IoStatus::kWriteFailed,
                             path_ + ": injected journal write fault");
  }
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    close();
    return IoResult::failure(IoStatus::kWriteFailed,
                             path_ + ": journal append failed");
  }
  if (util::fault_should_fail(util::FaultPoint::kJournalFlush)) {
    close();
    return IoResult::failure(IoStatus::kWriteFailed,
                             path_ + ": injected journal flush fault");
  }
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    close();
    return IoResult::failure(IoStatus::kWriteFailed,
                             path_ + ": journal flush/fsync failed");
  }
  static obs::Histogram& append_seconds =
      obs::MetricsRegistry::global().histogram("scan.journal.append_seconds",
                                               obs::default_latency_buckets());
  static obs::Counter& bytes_written = obs::MetricsRegistry::global().counter(
      "scan.journal.bytes_written");
  append_seconds.observe(append_timer.seconds());
  bytes_written.increment(frame.size());
  return IoResult::success();
}

void ScanJournal::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

IoResult ScanJournal::recover(const std::string& path,
                              const JournalMeta& meta, JournalState* state) {
  HOTSPOT_CHECK(state != nullptr) << "recover needs a target";
  std::int64_t valid_end = 0;
  return recover_state(path, meta, *state, valid_end);
}

}  // namespace hotspot::scan
