// Fuzz-style robustness coverage for checkpoint loading: truncations at
// every 64-byte boundary, single-bit flips across the file, and random
// garbage must all come back as typed errors — never an abort, a crash, or
// an allocation driven by an unvalidated on-disk length. Run under
// -DHOTSPOT_SANITIZE=address to turn any latent OOB/overallocation into a
// hard failure.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "nn/batchnorm_layer.h"
#include "nn/linear_layer.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "support/test_support.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace hotspot::nn {
namespace {

using test_support::test_path;

Sequential make_net(std::uint64_t seed) {
  util::Rng rng(seed);
  Sequential net;
  net.emplace<Linear>(16, 8, rng);
  net.emplace<BatchNorm2d>(8);
  net.emplace<Linear>(8, 2, rng);
  return net;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const char* data, std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(data, static_cast<std::streamsize>(size));
}

// A reference checkpoint every case mutilates a copy of.
class SerializeFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    reference_path_ = test_path("fuzz_reference.bin");
    Sequential net = make_net(1);
    ASSERT_TRUE(save_checkpoint(reference_path_, net).ok());
    reference_bytes_ = read_file(reference_path_);
    ASSERT_GT(reference_bytes_.size(), 64u);
  }

  std::string reference_path_;
  std::vector<char> reference_bytes_;
};

TEST_F(SerializeFuzz, IntactFileLoads) {
  Sequential net = make_net(2);
  const LoadResult result = load_checkpoint(reference_path_, net);
  EXPECT_TRUE(result.ok()) << result.message;
  EXPECT_EQ(result.status, util::IoStatus::kOk);
}

TEST_F(SerializeFuzz, MissingFileIsTyped) {
  Sequential net = make_net(2);
  const LoadResult result =
      load_checkpoint(test_path("fuzz_never_written.bin"), net);
  EXPECT_EQ(result.status, util::IoStatus::kMissing);
}

TEST_F(SerializeFuzz, TruncationAtEvery64ByteBoundaryIsTyped) {
  const std::string path = test_path("fuzz_truncated.bin");
  for (std::size_t keep = 0; keep < reference_bytes_.size(); keep += 64) {
    write_file(path, reference_bytes_.data(), keep);
    Sequential net = make_net(3);
    const LoadResult result = load_checkpoint(path, net);
    ASSERT_FALSE(result.ok()) << "accepted a " << keep << "-byte prefix";
    // Cutting the file can only read as truncation or as damage to a field
    // the parser validates; it must never be mistaken for success.
    EXPECT_TRUE(result.status == util::IoStatus::kTruncated ||
                result.status == util::IoStatus::kCorrupt ||
                result.status == util::IoStatus::kBadFormat ||
                result.status == util::IoStatus::kMismatch)
        << "prefix " << keep << ": " << io_status_name(result.status);
    EXPECT_FALSE(result.message.empty());
  }
  // Dropping just the CRC footer must also fail: the payload parses, but
  // the integrity proof is gone.
  write_file(path, reference_bytes_.data(), reference_bytes_.size() - 4);
  Sequential net = make_net(3);
  EXPECT_EQ(load_checkpoint(path, net).status, util::IoStatus::kTruncated);
}

TEST_F(SerializeFuzz, SingleBitFlipsAreAlwaysRejected) {
  const std::string path = test_path("fuzz_bitflip.bin");
  util::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const auto byte = rng.uniform_int(
        0, static_cast<std::int64_t>(reference_bytes_.size()) - 1);
    const int bit = static_cast<int>(rng.uniform_int(0, 7));
    write_file(path, reference_bytes_.data(), reference_bytes_.size());
    ASSERT_TRUE(util::corrupt_flip_bit(path, byte, bit));
    Sequential net = make_net(4);
    const LoadResult result = load_checkpoint(path, net);
    // CRC32 detects every single-bit error, so even a flip that survives
    // all structural validation cannot load as success.
    ASSERT_FALSE(result.ok())
        << "bit " << bit << " of byte " << byte << " flipped unnoticed";
    EXPECT_NE(result.status, util::IoStatus::kOk);
    EXPECT_NE(result.status, util::IoStatus::kMissing);
  }
}

TEST_F(SerializeFuzz, SixteenByteGarbageFailsCleanly) {
  // Regression for the unbounded `text.resize(length)` in the v1 loader: a
  // tiny garbage file whose bytes decode as a huge length must be rejected
  // by bounds validation before any allocation happens.
  const std::string path = test_path("fuzz_garbage16.bin");
  const char garbage[16] = {'\x54', '\x50', '\x53', '\x48',  // bad magic
                            '\xff', '\xff', '\xff', '\xff', '\xff', '\xff',
                            '\xff', '\xff', '\xff', '\xff', '\xff', '\xff'};
  write_file(path, garbage, sizeof(garbage));
  Sequential net = make_net(5);
  const LoadResult result = load_checkpoint(path, net);
  EXPECT_EQ(result.status, util::IoStatus::kTruncated) << result.message;
}

TEST_F(SerializeFuzz, RandomGarbageFilesAreTyped) {
  const std::string path = test_path("fuzz_garbage.bin");
  util::Rng rng(7);
  const std::size_t sizes[] = {0, 3, 19, 20, 64, 1024, 8192};
  for (const std::size_t size : sizes) {
    std::vector<char> garbage(size);
    for (char& value : garbage) {
      value = static_cast<char>(rng.uniform_int(0, 255));
    }
    write_file(path, garbage.data(), garbage.size());
    Sequential net = make_net(6);
    const LoadResult result = load_checkpoint(path, net);
    ASSERT_FALSE(result.ok()) << size << "-byte garbage accepted";
    EXPECT_NE(result.status, util::IoStatus::kMissing);
  }
}

TEST_F(SerializeFuzz, GarbageWithValidHeaderIsTyped) {
  // Correct magic/version but hostile counts and lengths after it: the caps
  // and remaining-bytes checks must reject before trusting any field.
  const std::string path = test_path("fuzz_hostile_header.bin");
  std::vector<char> hostile(reference_bytes_.begin(),
                            reference_bytes_.begin() + 8);
  for (int i = 0; i < 64; ++i) {
    hostile.push_back('\xff');
  }
  write_file(path, hostile.data(), hostile.size());
  Sequential net = make_net(7);
  const LoadResult result = load_checkpoint(path, net);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status == util::IoStatus::kCorrupt ||
              result.status == util::IoStatus::kMismatch)
      << io_status_name(result.status);
}

TEST_F(SerializeFuzz, TrailingBytesAreCorrupt) {
  const std::string path = test_path("fuzz_trailing.bin");
  std::vector<char> padded = reference_bytes_;
  padded.insert(padded.end(), 128, '\0');
  write_file(path, padded.data(), padded.size());
  Sequential net = make_net(8);
  EXPECT_EQ(load_checkpoint(path, net).status, util::IoStatus::kCorrupt);
}

TEST_F(SerializeFuzz, PreCrcFormatVersionRejected) {
  const std::string path = test_path("fuzz_v1.bin");
  std::vector<char> old_version = reference_bytes_;
  old_version[4] = '\x01';  // version field
  write_file(path, old_version.data(), old_version.size());
  Sequential net = make_net(9);
  EXPECT_EQ(load_checkpoint(path, net).status, util::IoStatus::kBadFormat);
}

}  // namespace
}  // namespace hotspot::nn
