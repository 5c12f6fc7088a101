// The byte codec behind every binary format: little-endian field widths,
// bounds-checked reads, overflow-safe count checks and the LSB-first bit
// packer.
#include "util/bytes.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hotspot::util {
namespace {

template <typename T>
void expect_round_trip(T value) {
  ByteWriter writer;
  writer.put(value);
  const std::vector<std::uint8_t> bytes = writer.take();
  ASSERT_EQ(bytes.size(), sizeof(T));
  ByteReader reader(bytes);
  T decoded{};
  ASSERT_TRUE(reader.read(&decoded));
  EXPECT_TRUE(reader.exhausted());
  // Bit-exact, so -0.0 and NaN payloads count too.
  if constexpr (std::is_floating_point_v<T>) {
    using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                    std::uint64_t>;
    EXPECT_EQ(std::bit_cast<Bits>(decoded), std::bit_cast<Bits>(value));
  } else {
    EXPECT_EQ(decoded, value);
  }
}

template <typename T>
void expect_boundaries_round_trip() {
  expect_round_trip<T>(0);
  expect_round_trip<T>(std::numeric_limits<T>::max());
  expect_round_trip<T>(std::numeric_limits<T>::min());  // sign bit when signed
  expect_round_trip<T>(static_cast<T>(1));
}

TEST(ByteCodec, IntegersRoundTripAtEveryWidthsBoundaries) {
  expect_boundaries_round_trip<std::uint8_t>();
  expect_boundaries_round_trip<std::uint16_t>();
  expect_boundaries_round_trip<std::uint32_t>();
  expect_boundaries_round_trip<std::uint64_t>();
  expect_boundaries_round_trip<std::int8_t>();
  expect_boundaries_round_trip<std::int16_t>();
  expect_boundaries_round_trip<std::int32_t>();
  expect_boundaries_round_trip<std::int64_t>();
  expect_round_trip<std::int32_t>(-1);
  expect_round_trip<std::int64_t>(-1);
}

TEST(ByteCodec, FloatsRoundTripBitExact) {
  for (const float value :
       {0.0f, -0.0f, 1.0f, std::numeric_limits<float>::max(),
        std::numeric_limits<float>::lowest(),
        std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN()}) {
    expect_round_trip(value);
  }
  for (const double value :
       {0.0, -0.0, 0.1, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    expect_round_trip(value);
  }
}

TEST(ByteCodec, FieldsAreLittleEndian) {
  ByteWriter writer;
  writer.put(std::uint16_t{0x0102})
      .put(std::uint32_t{0x03040506})
      .put(std::int64_t{-2})
      .string<std::uint16_t>("hi");
  const std::vector<std::uint8_t> expected = {
      0x02, 0x01,                                      // u16
      0x06, 0x05, 0x04, 0x03,                          // u32
      0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // i64 -2
      0x02, 0x00, 'h',  'i'};                          // u16 length + text
  EXPECT_EQ(writer.take(), expected);
}

// One of every field kind, in the order decode_sample reads them back.
std::vector<std::uint8_t> encode_sample() {
  const std::vector<std::int32_t> ints = {-7, 9};
  ByteWriter writer;
  writer.put(std::uint8_t{0xab})
      .put(std::uint16_t{0xbeef})
      .put(std::uint32_t{0xdeadbeef})
      .put(std::uint64_t{0x0123456789abcdefULL})
      .put(1.5f)
      .put(-2.25)
      .string<std::uint8_t>("tenant")
      .array(ints.data(), ints.size());
  return writer.take();
}

bool decode_sample(ByteReader& reader) {
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  float f32 = 0.0f;
  double f64 = 0.0;
  std::uint8_t text_len = 0;
  std::string text;
  std::vector<std::int32_t> ints;
  if (!reader.read(&u8) || !reader.read(&u16) || !reader.read(&u32) ||
      !reader.read(&u64) || !reader.read(&f32) || !reader.read(&f64) ||
      !reader.read(&text_len) || !reader.string(text_len, 16, &text) ||
      !reader.array(2, &ints)) {
    return false;
  }
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_EQ(text, "tenant");
  EXPECT_EQ(ints, (std::vector<std::int32_t>{-7, 9}));
  return true;
}

TEST(ByteCodec, EveryTruncationFails) {
  const std::vector<std::uint8_t> bytes = encode_sample();
  {
    ByteReader reader(bytes);
    ASSERT_TRUE(decode_sample(reader));
    EXPECT_TRUE(reader.exhausted());
  }
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader reader(bytes.data(), cut);
    EXPECT_FALSE(decode_sample(reader)) << "cut at " << cut;
  }
}

TEST(ByteCodec, FailedReadLeavesTheCursor) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3};
  ByteReader reader(bytes);
  std::uint32_t wide = 0;
  EXPECT_FALSE(reader.read(&wide));
  EXPECT_EQ(reader.remaining(), 3u);
  std::uint16_t narrow = 0;
  EXPECT_TRUE(reader.read(&narrow));
  EXPECT_EQ(narrow, 0x0201);
  EXPECT_EQ(reader.remaining(), 1u);
}

TEST(ByteCodec, FitsRejectsCountsWhoseByteTotalOverflows) {
  const std::vector<std::uint8_t> bytes(16);
  ByteReader reader(bytes);
  EXPECT_TRUE(reader.fits(0, 8));
  EXPECT_TRUE(reader.fits(2, 8));
  EXPECT_TRUE(reader.fits(16, 1));
  EXPECT_FALSE(reader.fits(3, 8));
  EXPECT_FALSE(reader.fits(17, 1));
  // count * bytes_per_item wraps size_t to a small number in each case; a
  // multiplying check would pass them.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_FALSE(reader.fits(kMax, 8));
  EXPECT_FALSE(reader.fits((kMax / 8) + 1, 8));
  EXPECT_FALSE(reader.fits(std::uint64_t{1} << 63, 2));
  EXPECT_FALSE(reader.fits(kMax, kMax));
}

TEST(ByteCodec, LyingArrayCountLeavesTheTargetUntouched) {
  const std::vector<std::uint8_t> bytes(12);
  ByteReader reader(bytes);
  std::vector<std::int64_t> values = {42};
  EXPECT_FALSE(reader.array(std::uint64_t{1} << 40, &values));
  EXPECT_EQ(values, std::vector<std::int64_t>{42});
  EXPECT_EQ(reader.remaining(), 12u);
  EXPECT_TRUE(reader.array(1, &values));
  EXPECT_EQ(reader.remaining(), 4u);
}

TEST(ByteCodec, ExhaustedCatchesTrailingBytes) {
  std::vector<std::uint8_t> bytes = ByteWriter().put(std::uint32_t{7}).take();
  bytes.push_back(0);
  ByteReader reader(bytes);
  std::uint32_t value = 0;
  ASSERT_TRUE(reader.read(&value));
  EXPECT_FALSE(reader.exhausted());
  EXPECT_EQ(reader.remaining(), 1u);
}

TEST(ByteCodec, StringHonoursItsCap) {
  const std::vector<std::uint8_t> bytes = {'a', 'b', 'c', 'd'};
  ByteReader reader(bytes);
  std::string text;
  EXPECT_FALSE(reader.string(4, 3, &text));  // over the cap
  EXPECT_FALSE(reader.string(5, 8, &text));  // past the end
  EXPECT_EQ(reader.remaining(), 4u);
  EXPECT_TRUE(reader.string(4, 4, &text));
  EXPECT_EQ(text, "abcd");
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteCodec, EmptySpanReadsZeroBytes) {
  ByteReader reader(nullptr, 0);
  std::vector<std::uint8_t> out = {9};
  EXPECT_TRUE(reader.bytes(0, &out));
  EXPECT_TRUE(out.empty());
  std::string text = "x";
  EXPECT_TRUE(reader.string(0, 0, &text));
  EXPECT_TRUE(text.empty());
  std::uint8_t byte = 0;
  EXPECT_FALSE(reader.read(&byte));
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteCodecDeathTest, LengthThatOverflowsItsPrefixIsABug) {
  ByteWriter writer;
  EXPECT_DEATH(writer.length<std::uint8_t>(256), "HOTSPOT_CHECK");
  EXPECT_DEATH(writer.string<std::uint16_t>(std::string(65536, 'x')),
               "HOTSPOT_CHECK");
}

TEST(ByteCodec, LengthAtItsPrefixMaximumEncodes) {
  ByteWriter writer;
  writer.string<std::uint8_t>(std::string(255, 'x'));
  const std::vector<std::uint8_t> bytes = writer.take();
  ASSERT_EQ(bytes.size(), 256u);
  EXPECT_EQ(bytes[0], 255);
}

TEST(ByteCodec, PackerRoundTripsEveryBitPosition) {
  for (std::size_t grid = 1; grid <= 9; ++grid) {
    const std::size_t count = grid * grid;
    ASSERT_EQ(packed_bytes(count), (count + 7) / 8);
    for (std::size_t hot = 0; hot < count; ++hot) {
      std::vector<float> values(count, 0.25f);
      values[hot] = 0.75f;
      std::vector<std::uint8_t> packed(packed_bytes(count), 0xff);
      pack_bits(values.data(), count, [](float v) { return v >= 0.5f; },
                packed.data());
      // Exactly bit hot % 8 of byte hot / 8; pad bits of the last byte zero.
      for (std::size_t byte = 0; byte < packed.size(); ++byte) {
        const unsigned expected = byte == hot / 8 ? 1u << (hot % 8) : 0u;
        ASSERT_EQ(packed[byte], expected)
            << "grid " << grid << " hot " << hot << " byte " << byte;
      }
      std::vector<std::uint8_t> unpacked(count, 7);
      unpack_bits(packed.data(), count, std::uint8_t{0}, std::uint8_t{1},
                  unpacked.data());
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(unpacked[i], i == hot ? 1 : 0)
            << "grid " << grid << " hot " << hot << " i " << i;
      }
    }
  }
}

}  // namespace
}  // namespace hotspot::util
