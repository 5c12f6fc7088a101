#include "serve/client.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/check.h"

namespace hotspot::serve {

ServeClient::~ServeClient() { close(); }

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ServeClient::send_bytes(const std::vector<std::uint8_t>& bytes,
                             std::string* error) {
  if (fd_ < 0) {
    *error = "not connected";
    return false;
  }
  if (!send_all(fd_, bytes.data(), bytes.size())) {
    *error = std::string("send: ") + std::strerror(errno);
    return false;
  }
  return true;
}

bool ServeClient::read_one(Frame* frame, std::string* error) {
  const FrameStatus status = read_frame(socket_reader(fd_), frame);
  if (status != FrameStatus::kOk) {
    *error = std::string("response frame: ") + frame_status_name(status);
    return false;
  }
  last_trace_id_ = frame->trace_id;
  return true;
}

bool ServeClient::predict(const std::string& tenant,
                          const tensor::Tensor& images,
                          PredictOutcome* outcome, std::string* error) {
  HOTSPOT_CHECK_EQ(images.rank(), 4) << "predict expects [n, 1, ls, ls]";
  if (!valid_tenant(tenant)) {
    *error = "invalid tenant '" + tenant + "'";
    return false;
  }
  PredictRequest request;
  request.request_id = next_request_id_++;
  request.grid = static_cast<std::uint16_t>(images.dim(2));
  request.count = static_cast<std::uint16_t>(images.dim(0));
  request.tenant = tenant;
  request.packed_clips =
      pack_rasters(images.data(), static_cast<std::size_t>(images.dim(0)),
                   request.grid);
  if (!send_bytes(encode_frame(MessageType::kPredictRequest,
                               encode_predict_request(request)),
                  error)) {
    return false;
  }
  Frame frame;
  if (!read_one(&frame, error)) {
    return false;
  }
  if (frame.type == MessageType::kReject) {
    Reject reject;
    if (!decode_reject(frame.payload, &reject)) {
      *error = "undecodable reject";
      return false;
    }
    outcome->ok = false;
    outcome->reason = reject.reason;
    outcome->detail = reject.detail;
    outcome->labels.clear();
    return true;
  }
  if (frame.type != MessageType::kPredictResponse) {
    *error = "unexpected response type";
    return false;
  }
  PredictResponse response;
  if (!decode_predict_response(frame.payload, &response)) {
    *error = "undecodable predict response";
    return false;
  }
  if (response.request_id != request.request_id) {
    *error = "response id mismatch";
    return false;
  }
  outcome->ok = true;
  outcome->labels.assign(response.labels.begin(), response.labels.end());
  outcome->detail.clear();
  return true;
}

bool ServeClient::ping(std::uint32_t token, std::string* error) {
  if (!send_bytes(encode_frame(MessageType::kPing, encode_token(token)),
                  error)) {
    return false;
  }
  Frame frame;
  if (!read_one(&frame, error)) {
    return false;
  }
  std::uint32_t echoed = 0;
  if (frame.type != MessageType::kPong ||
      !decode_token(frame.payload, &echoed) || echoed != token) {
    *error = "bad pong";
    return false;
  }
  return true;
}

bool ServeClient::swap_model(const std::string& path, std::int64_t image_size,
                             std::uint64_t* version,
                             std::optional<Reject>* reject,
                             std::string* error) {
  if (path.empty() || path.size() > kMaxPathBytes) {
    *error = "model path must be 1 to " + std::to_string(kMaxPathBytes) +
             " bytes";
    return false;
  }
  SwapModel swap;
  swap.request_id = next_request_id_++;
  swap.image_size = static_cast<std::uint16_t>(image_size);
  swap.path = path;
  if (!send_bytes(
          encode_frame(MessageType::kSwapModel, encode_swap_model(swap)),
          error)) {
    return false;
  }
  Frame frame;
  if (!read_one(&frame, error)) {
    return false;
  }
  if (frame.type == MessageType::kReject) {
    Reject decoded;
    if (!decode_reject(frame.payload, &decoded)) {
      *error = "undecodable reject";
      return false;
    }
    *reject = std::move(decoded);
    return true;
  }
  SwapOk ok;
  if (frame.type != MessageType::kSwapOk ||
      !decode_swap_ok(frame.payload, &ok)) {
    *error = "unexpected swap response";
    return false;
  }
  *version = ok.version;
  reject->reset();
  return true;
}

bool ServeClient::stats(std::string* json, std::string* error) {
  if (!send_bytes(encode_frame(MessageType::kStatsRequest, {}), error)) {
    return false;
  }
  Frame frame;
  if (!read_one(&frame, error)) {
    return false;
  }
  if (frame.type != MessageType::kStatsResponse) {
    *error = "unexpected stats response";
    return false;
  }
  json->assign(frame.payload.begin(), frame.payload.end());
  return true;
}

bool ServeClient::shutdown_server(std::string* error) {
  if (!send_bytes(encode_frame(MessageType::kShutdown, {}), error)) {
    return false;
  }
  Frame frame;
  if (!read_one(&frame, error)) {
    return false;
  }
  if (frame.type != MessageType::kShutdownOk) {
    *error = "unexpected shutdown response";
    return false;
  }
  return true;
}

bool ServeClient::send_raw(const std::vector<std::uint8_t>& bytes,
                           Frame* response, std::string* error) {
  if (!send_bytes(bytes, error)) {
    return false;
  }
  return read_one(response, error);
}

}  // namespace hotspot::serve
