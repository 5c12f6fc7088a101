#include "serve/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <utility>

#include "util/check.h"

namespace hotspot::serve {
namespace {

// "HTTP/1.x SSS <reason>\r\n<headers>\r\n\r\n<body>" with a three-digit
// status; anything else is not HTTP.
bool parse_http_response(const std::string& raw, HttpResponse* response) {
  const std::size_t code = raw.find(' ') + 1;  // 0 when there is no space
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/", 0) != 0 || code == 0 ||
      header_end == std::string::npos || code + 3 > header_end ||
      (raw[code + 3] != ' ' && raw[code + 3] != '\r')) {
    return false;
  }
  const char* digits = raw.data() + code;
  int status = 0;
  const auto [end, ec] = std::from_chars(digits, digits + 3, status);
  if (ec != std::errc() || end != digits + 3 || status < 100) {
    return false;
  }
  response->status = status;
  response->body = raw.substr(header_end + 4);
  return true;
}

}  // namespace

bool Listener::start(int port, int backlog, Handler handler,
                     std::string* error) {
  HOTSPOT_CHECK(!running()) << "start() called twice";
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int enable = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const char* failed = nullptr;
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    failed = "bind: ";
  } else if (::listen(fd_, backlog) < 0) {
    failed = "listen: ";
  }
  if (failed != nullptr) {
    *error = failed + std::string(std::strerror(errno));
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  bound_port_ = ntohs(addr.sin_port);
  handler_ = std::move(handler);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Listener::stop() {
  if (!running_.exchange(false)) {
    return;
  }
  ::shutdown(fd_, SHUT_RDWR);
  thread_.join();
  ::close(fd_);
  fd_ = -1;
}

void Listener::accept_loop() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listening socket shut down — stopping
    }
    if (!running()) {
      ::close(fd);
      return;
    }
    handler_(fd);
  }
}

bool send_all(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < size) {
#ifdef MSG_NOSIGNAL
    const ssize_t n = ::send(fd, bytes + sent, size - sent, MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd, bytes + sent, size - sent, 0);
#endif
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

ReadFn socket_reader(int fd) {
  return [fd](std::uint8_t* out, std::size_t size) -> std::size_t {
    for (;;) {
      const ssize_t n = ::recv(fd, out, size, 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return n > 0 ? static_cast<std::size_t>(n) : 0;
    }
  };
}

int connect_loopback(const std::string& host, int port, std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad host address: " + host;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

HttpGetResult http_get(const std::string& host, int port,
                       const std::string& path, HttpResponse* response,
                       std::string* error) {
  const int fd = connect_loopback(host, port, error);
  if (fd < 0) {
    return HttpGetResult::kTransportError;
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!send_all(fd, request.data(), request.size())) {
    *error = std::string("send: ") + std::strerror(errno);
    ::close(fd);
    return HttpGetResult::kTransportError;
  }
  const ReadFn read = socket_reader(fd);
  std::string raw;
  std::uint8_t buffer[4096];
  for (std::size_t n; (n = read(buffer, sizeof(buffer))) > 0;) {
    raw.append(reinterpret_cast<const char*>(buffer), n);
  }
  ::close(fd);
  if (raw.empty()) {
    *error = "connection closed without a response";
    return HttpGetResult::kTransportError;
  }
  if (!parse_http_response(raw, response)) {
    *error = "response is not HTTP";
    return HttpGetResult::kMalformed;
  }
  return HttpGetResult::kOk;
}

}  // namespace hotspot::serve
