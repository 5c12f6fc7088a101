// Loopback TCP transport for the serve front end (DESIGN.md §15), the admin
// endpoint (§16.2) and their clients: one listener, one send loop, one
// reader, one connect and one HTTP GET.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <thread>

#include "serve/protocol.h"

namespace hotspot::serve {

// Accept loop on 127.0.0.1. Each accepted fd goes to the handler, on the
// accept thread; the handler owns it.
class Listener {
 public:
  using Handler = std::function<void(int fd)>;

  Listener() = default;
  ~Listener() { stop(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Binds 127.0.0.1:<port> (0 = ephemeral), listens with `backlog` and
  // starts the accept thread. False with `error` set on failure.
  bool start(int port, int backlog, Handler handler, std::string* error);
  // Shuts the listening socket down (unblocking accept() without racing
  // the close), joins the accept thread, closes. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // Port actually bound (resolves port 0); 0 before start().
  int bound_port() const { return bound_port_; }

 private:
  void accept_loop();

  Handler handler_;
  int fd_ = -1;
  int bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

// Writes all bytes, retrying on EINTR; a closed peer fails the call instead
// of raising SIGPIPE.
bool send_all(int fd, const void* data, std::size_t size);

// recv() with EINTR retried, as the ReadFn read_frame() pulls through; 0 on
// EOF or error.
ReadFn socket_reader(int fd);

// Connects to <host>:<port>, `host` a dotted quad. The fd, or -1 with
// `error` set.
int connect_loopback(const std::string& host, int port, std::string* error);

// One HTTP/1.0 GET in the admin endpoint's dialect: request line, read to
// EOF, split the status line from the body. kTransportError when there is
// no connection or no answer; kMalformed when the answer is not HTTP.
enum class HttpGetResult { kOk, kTransportError, kMalformed };
struct HttpResponse {
  int status = 0;
  std::string body;
};
HttpGetResult http_get(const std::string& host, int port,
                       const std::string& path, HttpResponse* response,
                       std::string* error);

}  // namespace hotspot::serve
