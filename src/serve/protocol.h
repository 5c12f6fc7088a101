// Wire protocol for the hotspot detection server (DESIGN.md §15).
//
// Every message travels in one frame, CRC-checked like the scan journal's
// records (§13) so a torn or bit-flipped transport can never be mistaken
// for a request:
//
//   u32 magic "HSRV" | u16 version | u8 type | u8 flags
//   u32 payload_size | u64 trace_id
//   payload[payload_size] | u32 crc32
//
// The trace_id lets a request be correlated across client logs, the flight
// recorder, and /tracez without touching any payload codec: the server
// allocates one per inbound frame and echoes it on the response. The CRC
// covers trace_id || payload, so every post-header byte stays under the
// checksum. read_frame() speaks kProtocolVersion only; any other version
// (including the retired v1, which had no trace_id) is kBadVersion.
//
// Frames and payloads are encoded with util/bytes.h, the one place the byte
// layout (little-endian fixed-width fields) and the length-prefix checks
// live. Its encoder refuses a string longer than its prefix can say, so
// callers validate user-supplied strings against the caps below first.
// payload_size is validated against kMaxPayloadBytes before any
// allocation, mirroring the checkpoint loader's hard caps.
//
// Requests carry bit-packed {0,1} rasters (LSB-first, ceil(grid^2/8) bytes
// per clip) — the same packing density the XNOR backend consumes — so a
// 128x128 clip costs 2 KiB on the wire instead of 64 KiB of floats.
//
// Decoding is transport-independent: read_frame() pulls bytes through a
// caller-supplied ReadFn, so unit tests exercise truncation and corruption
// against in-memory buffers, and the server/client wrap their sockets with
// the same code path.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace hotspot::serve {

inline constexpr std::uint32_t kFrameMagic = 0x56525348;  // "HSRV" LE
inline constexpr std::uint16_t kProtocolVersion = 2;
// Caps a frame's payload (16 MiB) so a corrupt or hostile length field can
// never drive an attacker-controlled allocation.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 24;
// Caps the variable-length strings inside payloads.
inline constexpr std::size_t kMaxTenantBytes = 32;
inline constexpr std::size_t kMaxDetailBytes = 512;
inline constexpr std::size_t kMaxPathBytes = 4096;

enum class MessageType : std::uint8_t {
  kPredictRequest = 1,
  kPredictResponse = 2,
  kReject = 3,
  kPing = 4,
  kPong = 5,
  kStatsRequest = 6,
  kStatsResponse = 7,
  kSwapModel = 8,
  kSwapOk = 9,
  kShutdown = 10,
  kShutdownOk = 11,
};

// Why the server refused a request. Carried in Reject payloads so clients
// can distinguish "back off and retry" (kQueueFull) from "fix your request"
// (kBadRequest / kTooLarge) from "give up" (kShuttingDown).
enum class RejectReason : std::uint8_t {
  kQueueFull = 1,  // admission queue at capacity — load was shed
  kBadFrame = 2,   // unparseable or CRC-corrupt frame
  kTooLarge = 3,   // clip count or payload over the configured cap
  kShuttingDown = 4,
  kModelUnavailable = 5,  // no model registered yet
  kBadRequest = 6,        // grid mismatch, bad tenant, malformed payload
  kSwapFailed = 7,        // hot-swap load failed; previous model still live
};

const char* reject_reason_name(RejectReason reason);

enum class FrameStatus {
  kOk = 0,
  kEof,        // clean end of stream before any header byte
  kBadMagic,   // header does not start with "HSRV"
  kBadVersion, // protocol version this build does not speak
  kTooLarge,   // declared payload exceeds kMaxPayloadBytes
  kTruncated,  // stream ended mid-frame
  kCorrupt,    // payload CRC mismatch
};

const char* frame_status_name(FrameStatus status);

struct Frame {
  MessageType type = MessageType::kPing;
  std::uint8_t flags = 0;
  // Request correlation id; 0 on unassigned requests.
  std::uint64_t trace_id = 0;
  std::vector<std::uint8_t> payload;
};

// Reads exactly `size` bytes into `out`; returns the number of bytes read
// (short only at end of stream / error).
using ReadFn =
    std::function<std::size_t(std::uint8_t* out, std::size_t size)>;

// Serializes one frame (header + payload + CRC footer).
std::vector<std::uint8_t> encode_frame(MessageType type,
                                       const std::vector<std::uint8_t>& payload,
                                       std::uint8_t flags = 0,
                                       std::uint64_t trace_id = 0);

// Reads and validates one frame. On kOk fills `out`; on any other status
// `out` is unspecified. A clean EOF before the first header byte is kEof;
// any mid-frame EOF is kTruncated.
FrameStatus read_frame(const ReadFn& read, Frame* out);

// --- Payload codecs -----------------------------------------------------
//
// Each payload struct has encode_* returning the payload bytes and a
// decode_* returning false on any structural violation (bad length, cap
// overflow, trailing bytes). Decoders never trust a length field without
// bounds-checking it against the remaining payload first.

struct PredictRequest {
  std::uint32_t request_id = 0;
  std::uint16_t grid = 0;   // clips are grid x grid {0,1} rasters
  std::string tenant;       // [A-Za-z0-9_.-], <= kMaxTenantBytes
  // count clips, each ceil(grid^2/8) bytes, LSB-first bit packing.
  std::uint16_t count = 0;
  std::vector<std::uint8_t> packed_clips;
};

struct PredictResponse {
  std::uint32_t request_id = 0;
  std::vector<std::uint8_t> labels;  // one byte per clip, 0 or 1
};

struct Reject {
  std::uint32_t request_id = 0;
  RejectReason reason = RejectReason::kBadRequest;
  std::string detail;  // <= kMaxDetailBytes, human-readable
};

struct SwapModel {
  std::uint32_t request_id = 0;
  std::uint16_t image_size = 0;
  std::string path;  // checkpoint archive to load, <= kMaxPathBytes
};

struct SwapOk {
  std::uint32_t request_id = 0;
  std::uint64_t version = 0;  // registry version now serving
};

// Bytes per clip at a given grid size.
std::size_t packed_clip_bytes(std::uint16_t grid);

// True when `tenant` is non-empty, within the cap, and matches
// [A-Za-z0-9_.-]+ (it becomes part of a metric name).
bool valid_tenant(const std::string& tenant);

std::vector<std::uint8_t> encode_predict_request(const PredictRequest& request);
bool decode_predict_request(const std::vector<std::uint8_t>& payload,
                            PredictRequest* out);

std::vector<std::uint8_t> encode_predict_response(
    const PredictResponse& response);
bool decode_predict_response(const std::vector<std::uint8_t>& payload,
                             PredictResponse* out);

std::vector<std::uint8_t> encode_reject(const Reject& reject);
bool decode_reject(const std::vector<std::uint8_t>& payload, Reject* out);

std::vector<std::uint8_t> encode_swap_model(const SwapModel& swap);
bool decode_swap_model(const std::vector<std::uint8_t>& payload,
                       SwapModel* out);

std::vector<std::uint8_t> encode_swap_ok(const SwapOk& ok);
bool decode_swap_ok(const std::vector<std::uint8_t>& payload, SwapOk* out);

// Ping/Pong carry an opaque u32 token echoed back verbatim.
std::vector<std::uint8_t> encode_token(std::uint32_t token);
bool decode_token(const std::vector<std::uint8_t>& payload,
                  std::uint32_t* out);

// Bit-packs `count` clips of grid*grid floats (values < 0.5 -> 0, else 1)
// into count * packed_clip_bytes(grid) bytes, LSB-first within each byte;
// each clip starts on a byte boundary so clips slice independently.
std::vector<std::uint8_t> pack_rasters(const float* pixels,
                                       std::size_t count, std::uint16_t grid);

// Inverse of pack_rasters: expands to {0.0f, 1.0f} pixels. `packed` must
// hold exactly count * packed_clip_bytes(grid) bytes.
std::vector<float> unpack_rasters(const std::vector<std::uint8_t>& packed,
                                  std::size_t count, std::uint16_t grid);

}  // namespace hotspot::serve
