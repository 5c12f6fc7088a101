// Byte-format pins: the length and CRC-32 of every binary format the repo
// writes, produced from fixed inputs. A refactor of the encoders must leave
// each pin unchanged; a deliberate format change must move the format's
// version constant and re-pin here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "nn/serialize.h"
#include "scan/journal.h"
#include "serve/protocol.h"
#include "support/test_support.h"
#include "util/bytes.h"
#include "util/crc32.h"

namespace hotspot {
namespace {

using test_support::test_path;

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// A pin is the length, the CRC-32 of every byte before the last four, and
// those last four bytes as a little-endian u32. Hashing the whole buffer
// would not do: every format here ends in a CRC-32 footer, and the CRC-32 of
// bytes followed by their own CRC is the constant residue 0x2144df1c.
void expect_pin(const std::vector<std::uint8_t>& bytes, std::size_t size,
                std::uint32_t body_crc, std::uint32_t tail) {
  ASSERT_EQ(bytes.size(), size);
  ASSERT_GE(size, 4u);
  const std::size_t body = size - 4;
  EXPECT_EQ(util::crc32_of(bytes.data(), body), body_crc)
      << std::hex << "body crc 0x" << util::crc32_of(bytes.data(), body);
  std::uint32_t last = 0;
  for (int i = 3; i >= 0; --i) {
    last = (last << 8) | bytes[body + static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(last, tail) << std::hex << "tail 0x" << last;
}

// --- HSRV frames (serve/protocol.h) ---------------------------------------

constexpr std::uint64_t kTraceId = 0x1122334455667788ULL;

// Two 5x5 clips: 25 pixels leave a partial last byte, and the pixel values
// straddle the 0.5 threshold.
std::vector<float> pin_pixels() {
  std::vector<float> pixels(2 * 25);
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    pixels[i] = static_cast<float>((i * 7) % 5) * 0.25f;
  }
  return pixels;
}

TEST(FormatPin, ServePredictRequestFrame) {
  serve::PredictRequest request;
  request.request_id = 0x01020304;
  request.grid = 5;
  request.tenant = "pin-tenant";
  request.count = 2;
  request.packed_clips = serve::pack_rasters(pin_pixels().data(), 2, 5);
  expect_pin(serve::encode_frame(serve::MessageType::kPredictRequest,
                                 serve::encode_predict_request(request), 0,
                                 kTraceId),
             51, 0x7d178d54, 0xb54dc745);
}

TEST(FormatPin, ServePredictResponseFrame) {
  serve::PredictResponse response;
  response.request_id = 0x0a0b0c0d;
  response.labels = {1, 0, 1, 1, 0};
  expect_pin(serve::encode_frame(serve::MessageType::kPredictResponse,
                                 serve::encode_predict_response(response), 0,
                                 kTraceId),
             35, 0xf85e3205, 0x613c3543);
}

TEST(FormatPin, ServeRejectFrame) {
  serve::Reject reject;
  reject.request_id = 77;
  reject.reason = serve::RejectReason::kQueueFull;
  reject.detail = "admission queue full";
  expect_pin(serve::encode_frame(serve::MessageType::kReject,
                                 serve::encode_reject(reject), 0, kTraceId),
             51, 0xa62a56ae, 0x652e3bbc);
}

TEST(FormatPin, ServeSwapFrame) {
  serve::SwapModel swap;
  swap.request_id = 9;
  swap.image_size = 128;
  swap.path = "models/pin.hspt";
  expect_pin(serve::encode_frame(serve::MessageType::kSwapModel,
                                 serve::encode_swap_model(swap), 0, kTraceId),
             47, 0x11a47dc5, 0x5ff76993);
}

TEST(FormatPin, ServeSwapOkFrame) {
  serve::SwapOk ok;
  ok.request_id = 9;
  ok.version = 0x0102030405060708ULL;
  expect_pin(serve::encode_frame(serve::MessageType::kSwapOk,
                                 serve::encode_swap_ok(ok), 0, kTraceId),
             36, 0xaa08880d, 0xa348f99c);
}

TEST(FormatPin, ServeTokenFrame) {
  expect_pin(serve::encode_frame(serve::MessageType::kPing,
                                 serve::encode_token(0xdeadbeef), 0x5a,
                                 kTraceId),
             28, 0x01b866de, 0x369d3edb);
}

// --- HSJL journal (scan/journal.h) ---------------------------------------

// A 3x3-pixel scan over a 4x2 window grid: 9 pixels leave a partial byte.
scan::JournalMeta pin_meta() {
  scan::JournalMeta meta;
  meta.chip_fingerprint = 0x0123456789abcdefULL;
  meta.window_nm = 1200;
  meta.step_nm = 600;
  meta.grid = 3;
  meta.cols = 4;
  meta.rows = 2;
  meta.origin_x = -300;
  meta.origin_y = 150;
  meta.batch_size = 4;
  meta.dedup = 1;
  meta.dedup_max_entries = 1024;
  meta.dedup_max_bytes = 1u << 20;
  return meta;
}

const std::vector<std::int64_t> kWindowEntries = {0, 1, -1, 0};
const std::vector<std::int32_t> kVerdicts = {1, -1};
// The scan's keys: each raster's pixels bit-packed LSB-first.
scan::RasterKey packed(std::initializer_list<int> pixels) {
  scan::RasterKey key(util::packed_bytes(pixels.size()));
  util::pack_bits(pixels.begin(), pixels.size(),
                  [](int pixel) { return pixel != 0; }, key.data());
  return key;
}

const std::vector<scan::RasterKey> kPixels = {
    packed({1, 0, 1, 0, 1, 0, 1, 1, 1}), packed({0, 1, 1, 0, 0, 0, 1, 0, 0})};

TEST(FormatPin, ScanJournalHeaderAndBatchRecord) {
  const std::string path = test_path("pin.journal");
  scan::ScanJournal journal;
  scan::JournalState state;
  ASSERT_TRUE(journal.open(path, pin_meta(), /*resume=*/false, &state));
  ASSERT_TRUE(
      journal.append_batch(0, 4, 0, kWindowEntries, kVerdicts, kPixels));
  journal.close();
  expect_pin(file_bytes(path), 178, 0xddf5c539, 0xa770c4ef);
}

// --- HSPT archive (nn/serialize.h) ----------------------------------------

TEST(FormatPin, CheckpointArchive) {
  tensor::Tensor weight({2, 3});
  tensor::Tensor bias({3});
  for (std::int64_t i = 0; i < weight.numel(); ++i) {
    weight[i] = static_cast<float>(i) * 0.5f - 1.0f;
  }
  for (std::int64_t i = 0; i < bias.numel(); ++i) {
    bias[i] = static_cast<float>(i) + 0.25f;
  }
  const std::string path = test_path("pin.hspt");
  ASSERT_TRUE(nn::save_archive(path, {{"layer.weight", &weight},
                                      {"layer.bias", &bias}},
                               {{"meta", {1, 2, 3, 250, 0}}}));
  expect_pin(file_bytes(path), 139, 0x643ccb11, 0x643ccb11);
}

}  // namespace
}  // namespace hotspot
