#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "support/test_support.h"
#include "util/crc32.h"
#include "util/fault_injection.h"

namespace hotspot::util {
namespace {

TEST(Crc32, MatchesKnownAnswerVector) {
  // The IEEE 802.3 / zlib check value for "123456789".
  EXPECT_EQ(crc32_of("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) {
  Crc32 crc;
  EXPECT_EQ(crc.value(), 0u);
  EXPECT_EQ(crc32_of(nullptr, 0), 0u);
}

TEST(Crc32, IncrementalEqualsOneShot) {
  const char data[] = "binarized residual neural network";
  const std::size_t size = sizeof(data) - 1;
  Crc32 crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc.update(data + i, 1);
  }
  EXPECT_EQ(crc.value(), crc32_of(data, size));
}

TEST(Crc32, ResetStartsOver) {
  Crc32 crc;
  crc.update("garbage", 7);
  crc.reset();
  crc.update("123456789", 9);
  EXPECT_EQ(crc.value(), 0xCBF43926u);
}

TEST(Crc32, SingleBitFlipChangesValue) {
  char data[64];
  std::memset(data, 0x42, sizeof(data));
  const std::uint32_t clean = crc32_of(data, sizeof(data));
  for (std::size_t byte = 0; byte < sizeof(data); byte += 7) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
      EXPECT_NE(crc32_of(data, sizeof(data)), clean)
          << "bit " << bit << " of byte " << byte;
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
    }
  }
}

TEST(FaultInjection, UnarmedProbesNeverFail) {
  ScopedFaultInjection guard;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fault_should_fail(FaultPoint::kCheckpointWrite));
  }
  EXPECT_EQ(fault_trip_count(FaultPoint::kCheckpointWrite), 0);
  EXPECT_EQ(fault_probe_count(FaultPoint::kCheckpointWrite), 100);
}

TEST(FaultInjection, CountdownFiresExactlyOnceAtTheNthProbe) {
  ScopedFaultInjection guard;
  fault_arm(FaultPoint::kCheckpointFlush, 3);
  EXPECT_FALSE(fault_should_fail(FaultPoint::kCheckpointFlush));
  EXPECT_FALSE(fault_should_fail(FaultPoint::kCheckpointFlush));
  EXPECT_TRUE(fault_should_fail(FaultPoint::kCheckpointFlush));
  // Self-disarms after firing.
  EXPECT_FALSE(fault_should_fail(FaultPoint::kCheckpointFlush));
  EXPECT_EQ(fault_trip_count(FaultPoint::kCheckpointFlush), 1);
}

TEST(FaultInjection, PointsAreIndependent) {
  ScopedFaultInjection guard;
  fault_arm(FaultPoint::kCheckpointRename, 1);
  EXPECT_FALSE(fault_should_fail(FaultPoint::kCheckpointWrite));
  EXPECT_FALSE(fault_should_fail(FaultPoint::kCheckpointFlush));
  EXPECT_TRUE(fault_should_fail(FaultPoint::kCheckpointRename));
}

TEST(FaultInjection, ClearDisarms) {
  ScopedFaultInjection guard;
  fault_arm(FaultPoint::kCheckpointWrite, 1);
  fault_clear(FaultPoint::kCheckpointWrite);
  EXPECT_FALSE(fault_should_fail(FaultPoint::kCheckpointWrite));
  EXPECT_EQ(fault_trip_count(FaultPoint::kCheckpointWrite), 0);
}

TEST(FaultInjection, StickyArmingFiresOnEveryProbeFromThreshold) {
  ScopedFaultInjection guard;
  fault_arm_sticky(FaultPoint::kScanRasterCompute, 3);
  EXPECT_FALSE(fault_should_fail(FaultPoint::kScanRasterCompute));
  EXPECT_FALSE(fault_should_fail(FaultPoint::kScanRasterCompute));
  // From the third probe on, a persistent fault: it never self-disarms,
  // which is what drives a window past its whole retry budget.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(fault_should_fail(FaultPoint::kScanRasterCompute)) << i;
  }
  EXPECT_EQ(fault_trip_count(FaultPoint::kScanRasterCompute), 5);
  fault_clear(FaultPoint::kScanRasterCompute);
  EXPECT_FALSE(fault_should_fail(FaultPoint::kScanRasterCompute));
}

TEST(FaultInjection, StickyDefaultFiresImmediately) {
  ScopedFaultInjection guard;
  fault_arm_sticky(FaultPoint::kScanPredictCompute);
  EXPECT_TRUE(fault_should_fail(FaultPoint::kScanPredictCompute));
  EXPECT_TRUE(fault_should_fail(FaultPoint::kScanPredictCompute));
}

TEST(FaultInjection, StallProbeSleepsOnlyWhenArmed) {
  ScopedFaultInjection guard;
  // Unarmed: no stall, no trip.
  EXPECT_FALSE(fault_maybe_stall(FaultPoint::kScanRasterStall));
  fault_set_stall_ms(1);
  fault_arm(FaultPoint::kScanRasterStall, 1);
  EXPECT_EQ(fault_stall_ms(), 1);
  EXPECT_TRUE(fault_maybe_stall(FaultPoint::kScanRasterStall));
  // One-shot arming self-disarms after the stall fires.
  EXPECT_FALSE(fault_maybe_stall(FaultPoint::kScanRasterStall));
  EXPECT_EQ(fault_trip_count(FaultPoint::kScanRasterStall), 1);
}

TEST(FaultInjection, ClearAllResetsStickyAndStall) {
  ScopedFaultInjection guard;
  fault_arm_sticky(FaultPoint::kScanAbort);
  fault_set_stall_ms(25);
  fault_clear_all();
  EXPECT_FALSE(fault_should_fail(FaultPoint::kScanAbort));
  EXPECT_EQ(fault_stall_ms(), 0);
}

TEST(FaultInjection, PointNamesAreStable) {
  EXPECT_STREQ(fault_point_name(FaultPoint::kCheckpointWrite),
               "checkpoint-write");
  EXPECT_STREQ(fault_point_name(FaultPoint::kCheckpointFlush),
               "checkpoint-flush");
  EXPECT_STREQ(fault_point_name(FaultPoint::kCheckpointRename),
               "checkpoint-rename");
}

TEST(CorruptionHelpers, TruncateAndFlipBit) {
  const std::string path = test_support::test_path("corruption_helpers.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::vector<char> data(100, '\x10');
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  EXPECT_EQ(file_size_of(path), 100);
  EXPECT_TRUE(corrupt_truncate(path, 40));
  EXPECT_EQ(file_size_of(path), 40);

  EXPECT_TRUE(corrupt_flip_bit(path, 5, 3));
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  ASSERT_EQ(bytes.size(), 40u);
  EXPECT_EQ(bytes[5], '\x18');
  EXPECT_EQ(bytes[4], '\x10');

  EXPECT_FALSE(corrupt_flip_bit(path, 40, 0));   // out of range
  EXPECT_FALSE(corrupt_flip_bit(path, 0, 8));    // bad bit index
  EXPECT_FALSE(corrupt_truncate(path, 41));      // cannot extend
  EXPECT_EQ(file_size_of(path + ".nope"), -1);
}

}  // namespace
}  // namespace hotspot::util
