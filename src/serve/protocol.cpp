#include "serve/protocol.h"

#include "util/bytes.h"
#include "util/crc32.h"

namespace hotspot::serve {
namespace {

using util::ByteReader;
using util::ByteWriter;

// The fixed frame header: magic, version, type, flags, payload size.
constexpr std::size_t kHeaderBytes = 12;

bool read_exact(const ReadFn& read, std::uint8_t* out, std::size_t size,
                bool* clean_eof) {
  std::size_t done = 0;
  while (done < size) {
    const std::size_t got = read(out + done, size - done);
    if (got == 0) {
      if (clean_eof != nullptr) {
        *clean_eof = done == 0;
      }
      return false;
    }
    done += got;
  }
  return true;
}

}  // namespace

const char* reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull:
      return "queue_full";
    case RejectReason::kBadFrame:
      return "bad_frame";
    case RejectReason::kTooLarge:
      return "too_large";
    case RejectReason::kShuttingDown:
      return "shutting_down";
    case RejectReason::kModelUnavailable:
      return "model_unavailable";
    case RejectReason::kBadRequest:
      return "bad_request";
    case RejectReason::kSwapFailed:
      return "swap_failed";
  }
  return "unknown";
}

const char* frame_status_name(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk:
      return "ok";
    case FrameStatus::kEof:
      return "eof";
    case FrameStatus::kBadMagic:
      return "bad_magic";
    case FrameStatus::kBadVersion:
      return "bad_version";
    case FrameStatus::kTooLarge:
      return "too_large";
    case FrameStatus::kTruncated:
      return "truncated";
    case FrameStatus::kCorrupt:
      return "corrupt";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_frame(MessageType type,
                                       const std::vector<std::uint8_t>& payload,
                                       std::uint8_t flags,
                                       std::uint64_t trace_id) {
  ByteWriter frame(kHeaderBytes + 8 + payload.size() + 4);
  frame.put(kFrameMagic)
      .put(kProtocolVersion)
      .put(static_cast<std::uint8_t>(type))
      .put(flags)
      .length<std::uint32_t>(payload.size())
      .put(trace_id)
      .bytes(payload);
  // The CRC covers trace_id || payload: every byte after the fixed header
  // stays under the checksum.
  frame.put(util::crc32_of(frame.data() + kHeaderBytes,
                           frame.size() - kHeaderBytes));
  return frame.take();
}

FrameStatus read_frame(const ReadFn& read, Frame* out) {
  std::uint8_t header[kHeaderBytes];
  bool clean_eof = false;
  if (!read_exact(read, header, sizeof(header), &clean_eof)) {
    return clean_eof ? FrameStatus::kEof : FrameStatus::kTruncated;
  }
  // The header is complete, so none of its fixed-width reads can fail.
  ByteReader fields(header, sizeof(header));
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint8_t type = 0;
  std::uint32_t payload_size = 0;
  fields.read(&magic);
  fields.read(&version);
  fields.read(&type);
  fields.read(&out->flags);
  fields.read(&payload_size);
  if (magic != kFrameMagic) {
    return FrameStatus::kBadMagic;
  }
  if (version != kProtocolVersion) {
    return FrameStatus::kBadVersion;
  }
  out->type = static_cast<MessageType>(type);
  if (payload_size > kMaxPayloadBytes) {
    return FrameStatus::kTooLarge;
  }
  std::uint8_t trace_bytes[8];
  if (!read_exact(read, trace_bytes, sizeof(trace_bytes), nullptr)) {
    return FrameStatus::kTruncated;
  }
  ByteReader(trace_bytes, sizeof(trace_bytes)).read(&out->trace_id);
  util::Crc32 crc;
  crc.update(trace_bytes, sizeof(trace_bytes));
  out->payload.resize(payload_size);
  if (payload_size > 0 &&
      !read_exact(read, out->payload.data(), payload_size, nullptr)) {
    return FrameStatus::kTruncated;
  }
  std::uint8_t footer[4];
  if (!read_exact(read, footer, sizeof(footer), nullptr)) {
    return FrameStatus::kTruncated;
  }
  crc.update(out->payload.data(), out->payload.size());
  if (util::load_le<std::uint32_t>(footer) != crc.value()) {
    return FrameStatus::kCorrupt;
  }
  return FrameStatus::kOk;
}

std::size_t packed_clip_bytes(std::uint16_t grid) {
  return util::packed_bytes(static_cast<std::size_t>(grid) *
                            static_cast<std::size_t>(grid));
}

bool valid_tenant(const std::string& tenant) {
  if (tenant.empty() || tenant.size() > kMaxTenantBytes) {
    return false;
  }
  for (const char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint8_t> encode_predict_request(
    const PredictRequest& request) {
  ByteWriter payload(9 + request.tenant.size() + request.packed_clips.size());
  payload.put(request.request_id)
      .put(request.grid)
      .put(request.count)
      .string<std::uint8_t>(request.tenant)
      .bytes(request.packed_clips);
  return payload.take();
}

bool decode_predict_request(const std::vector<std::uint8_t>& payload,
                            PredictRequest* out) {
  ByteReader reader(payload);
  std::uint8_t tenant_len = 0;
  if (!reader.read(&out->request_id) || !reader.read(&out->grid) ||
      !reader.read(&out->count) || !reader.read(&tenant_len) ||
      !reader.string(tenant_len, kMaxTenantBytes, &out->tenant)) {
    return false;
  }
  if (out->grid == 0 || !valid_tenant(out->tenant)) {
    return false;
  }
  const std::size_t clip_bytes =
      packed_clip_bytes(out->grid) * static_cast<std::size_t>(out->count);
  return reader.bytes(clip_bytes, &out->packed_clips) && reader.exhausted();
}

std::vector<std::uint8_t> encode_predict_response(
    const PredictResponse& response) {
  ByteWriter payload(6 + response.labels.size());
  payload.put(response.request_id)
      .length<std::uint16_t>(response.labels.size())
      .bytes(response.labels);
  return payload.take();
}

bool decode_predict_response(const std::vector<std::uint8_t>& payload,
                             PredictResponse* out) {
  ByteReader reader(payload);
  std::uint16_t count = 0;
  if (!reader.read(&out->request_id) || !reader.read(&count) ||
      !reader.bytes(count, &out->labels)) {
    return false;
  }
  for (const std::uint8_t label : out->labels) {
    if (label > 1) {
      return false;
    }
  }
  return reader.exhausted();
}

std::vector<std::uint8_t> encode_reject(const Reject& reject) {
  ByteWriter payload(7 + reject.detail.size());
  payload.put(reject.request_id)
      .put(static_cast<std::uint8_t>(reject.reason))
      .string<std::uint16_t>(reject.detail);
  return payload.take();
}

bool decode_reject(const std::vector<std::uint8_t>& payload, Reject* out) {
  ByteReader reader(payload);
  std::uint8_t reason = 0;
  std::uint16_t detail_len = 0;
  if (!reader.read(&out->request_id) || !reader.read(&reason) ||
      !reader.read(&detail_len) ||
      !reader.string(detail_len, kMaxDetailBytes, &out->detail)) {
    return false;
  }
  if (reason < 1 || reason > 7) {
    return false;
  }
  out->reason = static_cast<RejectReason>(reason);
  return reader.exhausted();
}

std::vector<std::uint8_t> encode_swap_model(const SwapModel& swap) {
  ByteWriter payload(8 + swap.path.size());
  payload.put(swap.request_id)
      .put(swap.image_size)
      .string<std::uint16_t>(swap.path);
  return payload.take();
}

bool decode_swap_model(const std::vector<std::uint8_t>& payload,
                       SwapModel* out) {
  ByteReader reader(payload);
  std::uint16_t path_len = 0;
  if (!reader.read(&out->request_id) || !reader.read(&out->image_size) ||
      !reader.read(&path_len) ||
      !reader.string(path_len, kMaxPathBytes, &out->path)) {
    return false;
  }
  if (out->image_size == 0 || out->path.empty()) {
    return false;
  }
  return reader.exhausted();
}

std::vector<std::uint8_t> encode_swap_ok(const SwapOk& ok) {
  ByteWriter payload(12);
  payload.put(ok.request_id).put(ok.version);
  return payload.take();
}

bool decode_swap_ok(const std::vector<std::uint8_t>& payload, SwapOk* out) {
  ByteReader reader(payload);
  return reader.read(&out->request_id) && reader.read(&out->version) &&
         reader.exhausted();
}

std::vector<std::uint8_t> encode_token(std::uint32_t token) {
  return ByteWriter(4).put(token).take();
}

bool decode_token(const std::vector<std::uint8_t>& payload,
                  std::uint32_t* out) {
  ByteReader reader(payload);
  return reader.read(out) && reader.exhausted();
}

std::vector<std::uint8_t> pack_rasters(const float* pixels, std::size_t count,
                                       std::uint16_t grid) {
  const std::size_t per_clip = packed_clip_bytes(grid);
  const std::size_t pixels_per_clip =
      static_cast<std::size_t>(grid) * static_cast<std::size_t>(grid);
  std::vector<std::uint8_t> packed(per_clip * count);
  for (std::size_t clip = 0; clip < count; ++clip) {
    util::pack_bits(pixels + clip * pixels_per_clip, pixels_per_clip,
                    [](float value) { return value >= 0.5f; },
                    packed.data() + clip * per_clip);
  }
  return packed;
}

std::vector<float> unpack_rasters(const std::vector<std::uint8_t>& packed,
                                  std::size_t count, std::uint16_t grid) {
  const std::size_t per_clip = packed_clip_bytes(grid);
  const std::size_t pixels_per_clip =
      static_cast<std::size_t>(grid) * static_cast<std::size_t>(grid);
  std::vector<float> pixels(pixels_per_clip * count);
  for (std::size_t clip = 0; clip < count; ++clip) {
    util::unpack_bits(packed.data() + clip * per_clip, pixels_per_clip, 0.0f,
                      1.0f, pixels.data() + clip * pixels_per_clip);
  }
  return pixels;
}

}  // namespace hotspot::serve
