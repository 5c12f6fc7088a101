// The loopback transport (serve/socket.h) on its own: the listener's accept
// thread and stop(), and the HTTP GET's split between "no answer" and "an
// answer that is not HTTP".
#include "serve/socket.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/protocol.h"

namespace hotspot::serve {
namespace {

// Reads one HTTP request (through the blank line) so the answer is never
// cut short by a reset over unread bytes.
void drain_request(int fd) {
  const ReadFn read = socket_reader(fd);
  std::string request;
  std::uint8_t buffer[256];
  while (request.find("\r\n\r\n") == std::string::npos) {
    const std::size_t n = read(buffer, sizeof(buffer));
    if (n == 0) {
      return;
    }
    request.append(reinterpret_cast<const char*>(buffer), n);
  }
}

// A listener that answers connection i with answers[i] and closes.
class CannedListener {
 public:
  explicit CannedListener(std::vector<std::string> answers)
      : answers_(std::move(answers)) {
    std::string error;
    EXPECT_TRUE(listener_.start(
        0, 4,
        [this](int fd) {
          drain_request(fd);
          const std::string& answer = answers_[next_++ % answers_.size()];
          send_all(fd, answer.data(), answer.size());
          ::close(fd);
        },
        &error))
        << error;
    EXPECT_GT(listener_.bound_port(), 0);
  }

  int port() const { return listener_.bound_port(); }
  Listener& listener() { return listener_; }

 private:
  std::vector<std::string> answers_;
  std::size_t next_ = 0;  // touched only by the accept thread
  Listener listener_;
};

TEST(ServeSocket, HttpGetRejectsNonHttpAnswer) {
  const std::vector<std::uint8_t> frame =
      encode_frame(MessageType::kReject, encode_reject(Reject{}));
  const std::vector<std::string> garbage = {
      "garbage\n",
      "HTTP/1.0 20 OK\r\n\r\n",
      "HTTP/1.0 2000 OK\r\n\r\n",
      "HTTP/1.0 2x0 OK\r\n\r\n",
      "HTTP/1.0 200 OK\r\nno blank line",
      "ICY 200 OK\r\n\r\n",
      std::string(frame.begin(), frame.end()),
  };
  CannedListener listener(garbage);
  for (const std::string& answer : garbage) {
    HttpResponse response;
    std::string error;
    EXPECT_EQ(http_get("127.0.0.1", listener.port(), "/healthz", &response,
                       &error),
              HttpGetResult::kMalformed)
        << "answer: " << answer;
    EXPECT_FALSE(error.empty());
  }
}

TEST(ServeSocket, HttpGetWithoutListenerIsTransportError) {
  int port = 0;
  {
    CannedListener listener({"unused"});
    port = listener.port();
    listener.listener().stop();
  }
  HttpResponse response;
  std::string error;
  EXPECT_EQ(http_get("127.0.0.1", port, "/healthz", &response, &error),
            HttpGetResult::kTransportError);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(http_get("not-an-address", port, "/", &response, &error),
            HttpGetResult::kTransportError);
}

TEST(ServeSocket, ListenerServesConcurrentClientsAndStopsIdempotently) {
  // Echo one frame back per connection; clients connect from several
  // threads while the accept thread hands each fd to the handler.
  std::atomic<int> handled{0};
  Listener listener;
  std::string error;
  ASSERT_TRUE(listener.start(
      0, 8,
      [&handled](int fd) {
        Frame frame;
        if (read_frame(socket_reader(fd), &frame) == FrameStatus::kOk) {
          const std::vector<std::uint8_t> echo =
              encode_frame(frame.type, frame.payload);
          send_all(fd, echo.data(), echo.size());
        }
        ++handled;
        ::close(fd);
      },
      &error))
      << error;
  EXPECT_TRUE(listener.running());
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> echoed{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&listener, &echoed, c] {
      std::string connect_error;
      const int fd = connect_loopback("127.0.0.1", listener.bound_port(),
                                      &connect_error);
      ASSERT_GE(fd, 0) << connect_error;
      const std::vector<std::uint8_t> ping = encode_frame(
          MessageType::kPing, encode_token(static_cast<std::uint32_t>(c)));
      ASSERT_TRUE(send_all(fd, ping.data(), ping.size()));
      Frame reply;
      std::uint32_t token = 0;
      if (read_frame(socket_reader(fd), &reply) == FrameStatus::kOk &&
          decode_token(reply.payload, &token) &&
          token == static_cast<std::uint32_t>(c)) {
        ++echoed;
      }
      ::close(fd);
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  EXPECT_EQ(echoed.load(), kClients);
  // stop() joins the accept thread, so every handler call has returned.
  listener.stop();
  EXPECT_FALSE(listener.running());
  EXPECT_EQ(handled.load(), kClients);
  listener.stop();
}

}  // namespace
}  // namespace hotspot::serve
