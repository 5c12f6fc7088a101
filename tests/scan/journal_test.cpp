// Scan journal unit tests: round-trip, identity pinning, torn-tail and
// bit-rot recovery, and the journal as the only recovery record. The
// kill-and-resume property over a whole scan lives in chaos_test.cpp; this
// file exercises the journal in isolation.
#include "scan/journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "support/test_support.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/fault_injection.h"

namespace hotspot::scan {
namespace {

using test_support::test_path;

void remove_journal(const std::string& path) { std::remove(path.c_str()); }

// Writes (mode "wb") or appends (mode "ab") raw bytes to `path`.
void write_bytes(const std::string& path, const char* mode,
                 const std::uint8_t* data, std::size_t size) {
  std::FILE* file = std::fopen(path.c_str(), mode);
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(data, 1, size, file), size);
  std::fclose(file);
}

// A 2x2-pixel scan over a 3x2 window grid: small enough to hand-check.
JournalMeta test_meta() {
  JournalMeta meta;
  meta.chip_fingerprint = 0xfeedbeef;
  meta.window_nm = 100;
  meta.step_nm = 100;
  meta.grid = 2;
  meta.cols = 3;
  meta.rows = 2;
  meta.origin_x = 0;
  meta.origin_y = 0;
  meta.batch_size = 2;
  meta.dedup = 1;
  return meta;
}

// A raster as the scan keys it: its pixels bit-packed LSB-first.
RasterKey raster(std::initializer_list<int> bits) {
  RasterKey key(util::packed_bytes(bits.size()));
  util::pack_bits(bits.begin(), bits.size(),
                  [](int bit) { return bit != 0; }, key.data());
  return key;
}

// Appends two batches covering windows [0,2) and [2,4): entries 0,1 then
// entry 2 plus a dedup hit back onto entry 0.
void append_two_batches(ScanJournal& journal) {
  ASSERT_TRUE(journal.append_batch(
      0, 2, 0, {0, 1}, {1, 0},
      {raster({1, 0, 1, 0}), raster({0, 0, 1, 1})}));
  ASSERT_TRUE(journal.append_batch(2, 4, 2, {2, 0}, {1},
                                   {raster({1, 1, 1, 1})}));
}

void expect_two_batches(const JournalState& state) {
  EXPECT_EQ(state.windows_done, 4);
  EXPECT_EQ(state.batches, 2);
  ASSERT_EQ(state.window_entry.size(), 4u);
  EXPECT_EQ(state.window_entry[0], 0);
  EXPECT_EQ(state.window_entry[1], 1);
  EXPECT_EQ(state.window_entry[2], 2);
  EXPECT_EQ(state.window_entry[3], 0);
  ASSERT_EQ(state.entry_verdicts.size(), 3u);
  EXPECT_EQ(state.entry_verdicts[0], 1);
  EXPECT_EQ(state.entry_verdicts[1], 0);
  EXPECT_EQ(state.entry_verdicts[2], 1);
  ASSERT_EQ(state.entry_pixels.size(), 3u);
  EXPECT_EQ(state.entry_pixels[0], raster({1, 0, 1, 0}));
  EXPECT_EQ(state.entry_pixels[1], raster({0, 0, 1, 1}));
  EXPECT_EQ(state.entry_pixels[2], raster({1, 1, 1, 1}));
}

TEST(ScanJournal, AppendThenRecoverRoundTrips) {
  const std::string path = test_path("journal_roundtrip.bin");
  remove_journal(path);
  {
    ScanJournal journal;
    JournalState fresh;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
    EXPECT_EQ(fresh.windows_done, 0);
    append_two_batches(journal);
  }
  JournalState state;
  ASSERT_TRUE(ScanJournal::recover(path, test_meta(), &state));
  expect_two_batches(state);
}

TEST(ScanJournal, AppendPublishesDurabilityMetrics) {
  const auto find_counter = [](const std::string& name) -> std::uint64_t {
    for (const auto& counter :
         obs::MetricsRegistry::global().snapshot().counters) {
      if (counter.name == name) {
        return counter.value;
      }
    }
    return 0;
  };
  const auto histogram_count = [](const std::string& name) -> std::uint64_t {
    for (const auto& histogram :
         obs::MetricsRegistry::global().snapshot().histograms) {
      if (histogram.name == name) {
        return histogram.count;
      }
    }
    return 0;
  };
  const std::uint64_t bytes_before =
      find_counter("scan.journal.bytes_written");
  const std::uint64_t appends_before =
      histogram_count("scan.journal.append_seconds");
  const std::string path = test_path("journal_metrics.bin");
  remove_journal(path);
  {
    ScanJournal journal;
    JournalState fresh;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
    append_two_batches(journal);
  }
  // Two successful appends: two histogram observations, and the byte
  // counter grew by at least the two frames' framing overhead.
  EXPECT_EQ(histogram_count("scan.journal.append_seconds"),
            appends_before + 2);
  EXPECT_GT(find_counter("scan.journal.bytes_written"), bytes_before);
  remove_journal(path);
}

TEST(ScanJournal, ResumeRecoversAndAppendsChain) {
  const std::string path = test_path("journal_resume.bin");
  remove_journal(path);
  {
    ScanJournal journal;
    JournalState fresh;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
    append_two_batches(journal);
  }
  {
    ScanJournal journal;
    JournalState recovered;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/true, &recovered));
    expect_two_batches(recovered);
    ASSERT_TRUE(journal.append_batch(4, 6, 3, {1, 3}, {0},
                                     {raster({0, 1, 0, 1})}));
  }
  JournalState state;
  ASSERT_TRUE(ScanJournal::recover(path, test_meta(), &state));
  EXPECT_EQ(state.windows_done, 6);
  EXPECT_EQ(state.entry_count(), 4);
  EXPECT_EQ(state.window_entry[5], 3);
}

TEST(ScanJournal, ResumeWithNothingToRecoverIsMissing) {
  const std::string path = test_path("journal_missing.bin");
  remove_journal(path);
  ScanJournal journal;
  JournalState state;
  const util::IoResult result =
      journal.open(path, test_meta(), /*resume=*/true, &state);
  EXPECT_EQ(result.status, util::IoStatus::kMissing);
  JournalState recovered;
  EXPECT_EQ(ScanJournal::recover(path, test_meta(), &recovered).status,
            util::IoStatus::kMissing);
}

TEST(ScanJournal, MetaMismatchIsRejected) {
  const std::string path = test_path("journal_mismatch.bin");
  remove_journal(path);
  {
    ScanJournal journal;
    JournalState fresh;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
    append_two_batches(journal);
  }
  JournalMeta other = test_meta();
  other.chip_fingerprint ^= 1;  // a different chip
  ScanJournal journal;
  JournalState state;
  EXPECT_EQ(journal.open(path, other, /*resume=*/true, &state).status,
            util::IoStatus::kMismatch);
  other = test_meta();
  other.grid = 4;  // same chip, different raster resolution
  EXPECT_EQ(ScanJournal::recover(path, other, &state).status,
            util::IoStatus::kMismatch);
}

TEST(ScanJournal, FreshOpenDiscardsPriorStateAndSnapshot) {
  const std::string path = test_path("journal_fresh.bin");
  remove_journal(path);
  {
    ScanJournal journal;
    JournalState fresh;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
    append_two_batches(journal);
  }
  {
    ScanJournal journal;
    JournalState fresh;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
    EXPECT_EQ(fresh.windows_done, 0);
  }
  // The discarded records must not come back on a resume.
  JournalState state;
  ASSERT_TRUE(ScanJournal::recover(path, test_meta(), &state));
  EXPECT_EQ(state.windows_done, 0);
  EXPECT_EQ(state.batches, 0);
  EXPECT_EQ(state.entry_count(), 0);
}

// Older builds wrote a `<path>.snap` file beside the journal. The journal
// alone is the recovery record now: whatever sits in that file — here
// garbage — changes neither recovery nor a resume, and is left untouched.
TEST(ScanJournal, StaleSnapshotFileIsIgnored) {
  const std::string path = test_path("journal_stale_snap.bin");
  const std::string snapshot = path + ".snap";
  remove_journal(path);
  {
    ScanJournal journal;
    JournalState fresh;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
    append_two_batches(journal);
  }
  const std::vector<std::uint8_t> garbage = {'H', 'S', 'J', 'S', 0xff, 0x00,
                                             0x13, 0x37, 0xde, 0xad};
  write_bytes(snapshot, "wb", garbage.data(), garbage.size());
  JournalState state;
  ASSERT_TRUE(ScanJournal::recover(path, test_meta(), &state));
  expect_two_batches(state);
  {
    ScanJournal journal;
    JournalState recovered;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/true, &recovered));
    expect_two_batches(recovered);
    ASSERT_TRUE(journal.append_batch(4, 6, 3, {1, 3}, {0},
                                     {raster({0, 1, 0, 1})}));
  }
  ASSERT_TRUE(ScanJournal::recover(path, test_meta(), &state));
  EXPECT_EQ(state.windows_done, 6);
  EXPECT_EQ(state.batches, 3);
  EXPECT_EQ(state.entry_pixels[3], raster({0, 1, 0, 1}));
  EXPECT_EQ(util::file_size_of(snapshot),
            static_cast<std::int64_t>(garbage.size()));
  std::remove(snapshot.c_str());
  remove_journal(path);
}

TEST(ScanJournal, TornTailRecoversLongestValidPrefix) {
  const std::string path = test_path("journal_torn.bin");
  const std::int64_t full_size = [&] {
    remove_journal(path);
    ScanJournal journal;
    JournalState fresh;
    EXPECT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
    append_two_batches(journal);
    return util::file_size_of(path);
  }();
  // Chop bytes off the tail one at a time: recovery must always yield a
  // valid prefix of the append history, never garbage, never an error.
  for (std::int64_t size = full_size - 1; size >= 0; --size) {
    remove_journal(path);
    {
      ScanJournal journal;
      JournalState fresh;
      ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
      append_two_batches(journal);
    }
    ASSERT_TRUE(util::corrupt_truncate(path, size));
    JournalState state;
    const util::IoResult result =
        ScanJournal::recover(path, test_meta(), &state);
    if (result.ok()) {
      EXPECT_TRUE(state.windows_done == 0 || state.windows_done == 2 ||
                  state.windows_done == 4)
          << "size " << size << " recovered " << state.windows_done;
      if (state.windows_done == 4) {
        expect_two_batches(state);
      }
    } else {
      // Only a header cut short may refuse recovery outright.
      EXPECT_EQ(result.status, util::IoStatus::kTruncated) << "size " << size;
    }
  }
}

TEST(ScanJournal, TornTailIsTruncatedOnResumeThenChains) {
  const std::string path = test_path("journal_torn_resume.bin");
  remove_journal(path);
  {
    ScanJournal journal;
    JournalState fresh;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
    append_two_batches(journal);
  }
  // Tear the second record's tail off.
  ASSERT_TRUE(util::corrupt_truncate(path, util::file_size_of(path) - 3));
  {
    ScanJournal journal;
    JournalState recovered;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/true, &recovered));
    EXPECT_EQ(recovered.windows_done, 2);
    EXPECT_EQ(recovered.entry_count(), 2);
    // Re-append the batch the tear destroyed; it must chain cleanly onto
    // the truncated file.
    ASSERT_TRUE(journal.append_batch(2, 4, 2, {2, 0}, {1},
                                     {raster({1, 1, 1, 1})}));
  }
  JournalState state;
  ASSERT_TRUE(ScanJournal::recover(path, test_meta(), &state));
  expect_two_batches(state);
}

TEST(ScanJournal, BitFlipsNeverRecoverGarbage) {
  const std::string path = test_path("journal_bitflip.bin");
  remove_journal(path);
  {
    ScanJournal journal;
    JournalState fresh;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
    append_two_batches(journal);
  }
  const std::int64_t size = util::file_size_of(path);
  ASSERT_GT(size, 0);
  for (std::int64_t offset = 0; offset < size; offset += 3) {
    ASSERT_TRUE(util::corrupt_flip_bit(path, offset, offset % 8));
    JournalState state;
    const util::IoResult result =
        ScanJournal::recover(path, test_meta(), &state);
    if (result.ok()) {
      // Whatever survived must be a valid prefix in window count AND in
      // content (a flipped verdict/pixel byte is caught by the record CRC,
      // so surviving records are bit-exact).
      EXPECT_TRUE(state.windows_done == 0 || state.windows_done == 2 ||
                  state.windows_done == 4)
          << "offset " << offset;
      if (state.windows_done >= 2) {
        EXPECT_EQ(state.window_entry[0], 0);
        EXPECT_EQ(state.window_entry[1], 1);
        EXPECT_EQ(state.entry_pixels[0], raster({1, 0, 1, 0}));
      }
    }
    ASSERT_TRUE(util::corrupt_flip_bit(path, offset, offset % 8));  // undo
  }
}

TEST(ScanJournal, InjectedAppendFaultLeavesRecoverableTornTail) {
  util::ScopedFaultInjection guard;
  const std::string path = test_path("journal_fault.bin");
  remove_journal(path);
  ScanJournal journal;
  JournalState fresh;
  ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
  ASSERT_TRUE(journal.append_batch(
      0, 2, 0, {0, 1}, {1, 0},
      {raster({1, 0, 1, 0}), raster({0, 0, 1, 1})}));
  util::fault_arm(util::FaultPoint::kJournalWrite, 1);
  const util::IoResult failed = journal.append_batch(
      2, 4, 2, {2, 0}, {1}, {raster({1, 1, 1, 1})});
  EXPECT_EQ(failed.status, util::IoStatus::kWriteFailed);
  EXPECT_FALSE(journal.is_open());  // a torn file must not take appends
  JournalState state;
  ASSERT_TRUE(ScanJournal::recover(path, test_meta(), &state));
  EXPECT_EQ(state.windows_done, 2);  // the half-written record is dropped
  EXPECT_EQ(state.entry_count(), 2);
}

// Readers ignore the pad bits past grid² (here the high four bits of a 2x2
// raster's byte), and a recovered key has them clear, so it equals the key
// the producer builds from the same window and the rebuilt cache hits.
TEST(ScanJournal, RecoveredKeyClearsPadBits) {
  const std::string path = test_path("journal_pad_bits.bin");
  remove_journal(path);
  {
    ScanJournal journal;
    JournalState fresh;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
    ASSERT_TRUE(journal.append_batch(0, 1, 0, {0}, {1}, {RasterKey{0xa5}}));
  }
  JournalState state;
  ASSERT_TRUE(ScanJournal::recover(path, test_meta(), &state));
  ASSERT_EQ(state.entry_pixels.size(), 1u);
  EXPECT_EQ(state.entry_pixels[0], raster({1, 0, 1, 0}));
  remove_journal(path);
}

TEST(ScanJournal, BadMagicIsBadFormat) {
  const std::string path = test_path("journal_bad_magic.bin");
  remove_journal(path);
  {
    ScanJournal journal;
    JournalState fresh;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
  }
  ASSERT_TRUE(util::corrupt_flip_bit(path, 0, 0));
  JournalState state;
  EXPECT_EQ(ScanJournal::recover(path, test_meta(), &state).status,
            util::IoStatus::kBadFormat);
}

// A record whose CRC holds but whose body breaks the format (here: its
// second new entry carries verdict -5) ends replay without leaving any of
// its fields behind, so the recovered window map, verdicts and rasters stay
// the same length as the records that did apply.
TEST(ScanJournal, MalformedRecordIsNotHalfApplied) {
  const std::string path = test_path("journal_malformed.bin");
  remove_journal(path);
  {
    ScanJournal journal;
    JournalState fresh;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
    append_two_batches(journal);
  }
  util::ByteWriter payload;
  payload.put(std::uint8_t{1})  // batch record
      .put(std::int64_t{4})      // win_begin
      .put(std::int64_t{6})      // win_end
      .put(std::int64_t{3})      // base_entry
      .put(std::uint32_t{2})     // new entries
      .put(std::int64_t{3})
      .put(std::int64_t{4})
      .put(std::int32_t{1})
      .put(std::uint8_t{0x0f})   // 2x2 raster, all set
      .put(std::int32_t{-5})
      .put(std::uint8_t{0x00});
  util::ByteWriter frame;
  frame.put(static_cast<std::uint32_t>(payload.size()))
      .bytes(payload.data(), payload.size())
      .put(util::crc32_of(payload.data(), payload.size()));
  write_bytes(path, "ab", frame.data(), frame.size());
  JournalState state;
  ASSERT_TRUE(ScanJournal::recover(path, test_meta(), &state));
  expect_two_batches(state);
  remove_journal(path);
}

// A resume never starts over on a damaged header: it reports the header's
// typed status and leaves the file as it found it.
TEST(ScanJournal, DamagedHeaderRefusesResumeWithItsStatus) {
  const std::string path = test_path("journal_bad_header.bin");
  std::int64_t header_size = 0;
  const auto write_journal = [&] {
    remove_journal(path);
    ScanJournal journal;
    JournalState fresh;
    ASSERT_TRUE(journal.open(path, test_meta(), /*resume=*/false, &fresh));
    header_size = util::file_size_of(path);
    append_two_batches(journal);
  };
  const auto expect_refused = [&](util::IoStatus status, const char* damage) {
    const std::int64_t size = util::file_size_of(path);
    ScanJournal journal;
    JournalState state;
    EXPECT_EQ(journal.open(path, test_meta(), /*resume=*/true, &state).status,
              status)
        << damage;
    EXPECT_FALSE(journal.is_open()) << damage;
    EXPECT_EQ(state.windows_done, 0) << damage;
    EXPECT_EQ(util::file_size_of(path), size) << damage;
  };
  write_journal();
  ASSERT_TRUE(util::corrupt_truncate(path, header_size - 1));
  expect_refused(util::IoStatus::kTruncated, "torn header");
  write_journal();
  // The header's last four bytes are its CRC.
  ASSERT_TRUE(util::corrupt_flip_bit(path, header_size - 1, 3));
  expect_refused(util::IoStatus::kCorrupt, "header CRC");
  remove_journal(path);
}

TEST(ChipFingerprint, SensitiveToGeometryAndOrder) {
  layout::Pattern a;
  a.add(layout::Rect{0, 0, 10, 10});
  a.add(layout::Rect{20, 0, 30, 10});
  layout::Pattern b;  // same rects, swapped order
  b.add(layout::Rect{20, 0, 30, 10});
  b.add(layout::Rect{0, 0, 10, 10});
  layout::Pattern c;  // one coordinate nudged
  c.add(layout::Rect{0, 0, 10, 10});
  c.add(layout::Rect{20, 0, 30, 11});
  EXPECT_EQ(chip_fingerprint(a), chip_fingerprint(a));
  EXPECT_NE(chip_fingerprint(a), chip_fingerprint(b));
  EXPECT_NE(chip_fingerprint(a), chip_fingerprint(c));
  EXPECT_NE(chip_fingerprint(a), chip_fingerprint(layout::Pattern{}));
}

}  // namespace
}  // namespace hotspot::scan
