// Admin/observability endpoint for the detection server (DESIGN.md §16).
//
// A second listener on 127.0.0.1 (serve/socket.h) speaking just enough
// HTTP/1.0 for scrape tooling — no external HTTP library, request = one GET
// line + headers we ignore, response = status line, two headers, blank
// line, body, close.
// Routes:
//   /metrics  Prometheus text exposition of the global registry (SLO and
//             timeline gauges are refreshed immediately before the scrape).
//   /healthz  JSON liveness: model registry swap status + admission-queue
//             depth. 200 when a model is registered and the last swap
//             succeeded, 503 otherwise (load balancers key off the code).
//   /varz     Full JSON metrics snapshot with the run manifest embedded.
//   /tracez   Flight-recorder dump of recent completed requests
//             (?limit=N caps entries, N a decimal integer in [0, 2^20],
//             anything else is a 400; ?dump=1 also writes the configured
//             dump file and reports the path/outcome).
//
// The endpoint is read-only by design: nothing served here mutates model
// state, so exposing it on an operator port cannot affect served labels.
// Scrapes run concurrently with serving; every handler reads through the
// same thread-safe surfaces the serve path writes (metrics registry,
// flight-recorder slot locks, registry mutex).
#pragma once

#include <string>

#include "serve/socket.h"

namespace hotspot::serve {

class Server;

struct AdminConfig {
  // 0 binds an ephemeral port; bound_port() reports the real one.
  int port = 0;
  // Where /tracez?dump=1 writes the flight-recorder snapshot. Empty
  // disables the dump route (the JSON response still works).
  std::string flight_dump_path;
};

class AdminServer {
 public:
  // `server` must outlive the admin endpoint (the serve binary owns both
  // and stops the admin listener first).
  AdminServer(const AdminConfig& config, Server* server);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  bool start(std::string* error);
  void stop();
  int bound_port() const { return listener_.bound_port(); }

  // One routed response. Public so tests can exercise routing and payload
  // shape without sockets; serve-path state is read at call time.
  struct Response {
    int status = 200;
    std::string content_type;
    std::string body;
  };
  Response handle(const std::string& method, const std::string& target);

 private:
  void serve_connection(int fd);

  AdminConfig config_;
  Server* server_;
  Listener listener_;
};

}  // namespace hotspot::serve
