#include "util/pgm.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "support/test_support.h"

namespace hotspot::util {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Pgm, HeaderAndPayload) {
  tensor::Tensor image({2, 3});
  image.at2(0, 0) = 1.0f;
  image.at2(1, 2) = 0.5f;
  const std::string path = test_support::test_path("img.pgm");
  ASSERT_TRUE(write_pgm(path, image));
  const std::string contents = read_file(path);
  EXPECT_EQ(contents.substr(0, 3), "P5\n");
  EXPECT_NE(contents.find("3 2\n255\n"), std::string::npos);
  // 6 payload bytes after the header.
  const auto header_end = contents.find("255\n") + 4;
  ASSERT_EQ(contents.size() - header_end, 6u);
  EXPECT_EQ(static_cast<unsigned char>(contents[header_end]), 255);
  // 0.5 * 255 = 127.5 rounds to nearest, not down.
  EXPECT_EQ(static_cast<unsigned char>(contents[header_end + 5]), 128);
}

TEST(Pgm, RoundsToNearestNotTruncates) {
  // 254.9/255 used to truncate to 254; rounding must yield 255. Likewise
  // 0.4/255 stays 0 while 0.6/255 becomes 1.
  tensor::Tensor image({1, 3});
  image.at2(0, 0) = 254.9f / 255.0f;
  image.at2(0, 1) = 0.4f / 255.0f;
  image.at2(0, 2) = 0.6f / 255.0f;
  const std::string path = test_support::test_path("round.pgm");
  ASSERT_TRUE(write_pgm(path, image));
  const std::string contents = read_file(path);
  const auto header_end = contents.find("255\n") + 4;
  ASSERT_EQ(contents.size() - header_end, 3u);
  EXPECT_EQ(static_cast<unsigned char>(contents[header_end]), 255);
  EXPECT_EQ(static_cast<unsigned char>(contents[header_end + 1]), 0);
  EXPECT_EQ(static_cast<unsigned char>(contents[header_end + 2]), 1);
}

TEST(Pgm, ClampsOutOfRange) {
  tensor::Tensor image({1, 2}, {-5.0f, 9.0f});
  const std::string path = test_support::test_path("clamp.pgm");
  ASSERT_TRUE(write_pgm(path, image));
  const std::string contents = read_file(path);
  const auto header_end = contents.find("255\n") + 4;
  EXPECT_EQ(static_cast<unsigned char>(contents[header_end]), 0);
  EXPECT_EQ(static_cast<unsigned char>(contents[header_end + 1]), 255);
}

TEST(Pgm, BadPathFails) {
  EXPECT_FALSE(write_pgm("/nonexistent/dir/x.pgm", tensor::Tensor({2, 2})));
}

}  // namespace
}  // namespace hotspot::util
