// Blocking client for the hotspot detection server (DESIGN.md §15).
//
// One connection, one in-flight request at a time (the server pipelines
// across clients, not within one). Every call decodes the server's typed
// responses: a Reject frame becomes a structured outcome, not an error
// string, so load generators can distinguish shed traffic (kQueueFull —
// back off and retry) from caller bugs.
//
// send_raw() ships arbitrary bytes, which is how the CI smoke leg injects
// a deliberately malformed frame and asserts the server answers with
// Reject(kBadFrame) and drops the connection.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/socket.h"
#include "tensor/tensor.h"

namespace hotspot::serve {

// What the server said to one predict call. `ok` distinguishes a label
// response from a typed reject.
struct PredictOutcome {
  bool ok = false;
  std::vector<int> labels;
  RejectReason reason = RejectReason::kBadRequest;
  std::string detail;
};

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  // Connects to 127.0.0.1:<port> (`host` must be a dotted quad). False
  // with `error` set on failure.
  bool connect(const std::string& host, int port, std::string* error) {
    close();
    fd_ = connect_loopback(host, port, error);
    return fd_ >= 0;
  }
  void close();

  // Classifies a [n, 1, ls, ls] {0,1} batch. Packs the rasters, round-trips
  // one request, fills `outcome`. False with `error` set on an invalid
  // tenant (see valid_tenant) or a transport failure (a Reject is a
  // successful round-trip with outcome->ok false).
  bool predict(const std::string& tenant, const tensor::Tensor& images,
               PredictOutcome* outcome, std::string* error);

  // Round-trips a Ping; false on transport failure or token mismatch.
  bool ping(std::uint32_t token, std::string* error);

  // Asks the server to hot-swap to `path`. On success fills `version`
  // (the registry version now serving); a typed refusal lands in `reject`.
  // False with `error` set on transport failure or a path that is empty or
  // longer than kMaxPathBytes.
  bool swap_model(const std::string& path, std::int64_t image_size,
                  std::uint64_t* version, std::optional<Reject>* reject,
                  std::string* error);

  // Fetches the server's metrics snapshot as JSON.
  bool stats(std::string* json, std::string* error);

  // Requests a clean server shutdown; true when ShutdownOk came back.
  bool shutdown_server(std::string* error);

  // Ships raw bytes with no framing (for malformed-frame tests) and reads
  // whatever single frame the server answers with.
  bool send_raw(const std::vector<std::uint8_t>& bytes, Frame* response,
                std::string* error);

  // Trace id carried by the last response frame (0 until the first
  // round-trip). The id is what /tracez and the flight dump key on, so a
  // load generator can log it next to its own request ids.
  std::uint64_t last_trace_id() const { return last_trace_id_; }

 private:
  bool send_bytes(const std::vector<std::uint8_t>& bytes, std::string* error);
  bool read_one(Frame* frame, std::string* error);

  int fd_ = -1;
  std::uint32_t next_request_id_ = 1;
  std::uint64_t last_trace_id_ = 0;
};

}  // namespace hotspot::serve
