#include "serve/admin.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "util/check.h"
#include "util/json.h"
#include "util/string_util.h"

namespace hotspot::serve {
namespace {

// A scrape request has no business being bigger than this; anything longer
// is garbage (or not HTTP) and the connection is dropped.
constexpr std::size_t kMaxRequestBytes = 8192;

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default:  return "Unknown";
  }
}

// "/tracez?limit=5&dump=1" -> path "/tracez", params {{"limit","5"},...}.
void split_target(const std::string& target, std::string* path,
                  std::vector<std::pair<std::string, std::string>>* params) {
  const std::size_t query = target.find('?');
  *path = target.substr(0, query);
  if (query == std::string::npos) {
    return;
  }
  std::size_t pos = query + 1;
  while (pos < target.size()) {
    std::size_t next = target.find('&', pos);
    if (next == std::string::npos) {
      next = target.size();
    }
    const std::string pair = target.substr(pos, next - pos);
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      params->emplace_back(pair, "");
    } else {
      params->emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    }
    pos = next + 1;
  }
}

// /tracez?limit= cap on the entries returned.
constexpr long long kMaxTracezLimit = 1LL << 20;

}  // namespace

AdminServer::AdminServer(const AdminConfig& config, Server* server)
    : config_(config), server_(server) {
  HOTSPOT_CHECK(server_ != nullptr);
}

AdminServer::~AdminServer() { stop(); }

bool AdminServer::start(std::string* error) {
  // Connections are handled inline: a scrape is a single bounded read and
  // one write, so serializing them keeps the endpoint to one thread. A
  // stalled client can hold the loop for at most the 2 s receive timeout.
  return listener_.start(
      config_.port, /*backlog=*/16,
      [this](int fd) {
        timeval timeout{};
        timeout.tv_sec = 2;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
        serve_connection(fd);
        ::close(fd);
      },
      error);
}

void AdminServer::stop() { listener_.stop(); }

void AdminServer::serve_connection(int fd) {
  const ReadFn read = socket_reader(fd);
  std::string request;
  std::uint8_t buffer[1024];
  while (request.find("\r\n") == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    const std::size_t n = read(buffer, sizeof(buffer));
    if (n == 0) {
      return;  // timeout, reset, or EOF before a full request line
    }
    request.append(reinterpret_cast<const char*>(buffer), n);
  }
  // "GET /path HTTP/1.0" — the headers that may follow are ignored.
  const std::size_t line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  const std::size_t method_end = line.find(' ');
  Response response;
  if (method_end == std::string::npos) {
    response = {400, "text/plain; charset=utf-8", "malformed request line\n"};
  } else {
    const std::size_t target_end = line.find(' ', method_end + 1);
    const std::string method = line.substr(0, method_end);
    const std::string target =
        target_end == std::string::npos
            ? line.substr(method_end + 1)
            : line.substr(method_end + 1, target_end - method_end - 1);
    response = handle(method, target);
  }
  std::string head = "HTTP/1.0 " + std::to_string(response.status) + " " +
                     status_reason(response.status) +
                     "\r\nContent-Type: " + response.content_type +
                     "\r\nContent-Length: " +
                     std::to_string(response.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (send_all(fd, head.data(), head.size())) {
    send_all(fd, response.body.data(), response.body.size());
  }
}

AdminServer::Response AdminServer::handle(const std::string& method,
                                          const std::string& target) {
  if (method != "GET") {
    return {405, "text/plain; charset=utf-8", "only GET is supported\n"};
  }
  std::string path;
  std::vector<std::pair<std::string, std::string>> params;
  split_target(target, &path, &params);

  if (path == "/metrics") {
    // Refresh the derived gauges so every scrape sees current values, not
    // whatever the last stats request happened to publish.
    server_->slo_monitor().publish();
    obs::publish_timeline_metrics();
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            obs::to_prometheus(obs::MetricsRegistry::global().snapshot(),
                               obs::collect_span_report())};
  }

  if (path == "/healthz") {
    const ModelRegistry::SwapStatus swap = server_->registry().swap_status();
    const bool healthy = swap.model_registered && swap.last_ok;
    std::string body = "{\"healthy\": ";
    body += healthy ? "true" : "false";
    body += ", \"model_registered\": ";
    body += swap.model_registered ? "true" : "false";
    body += ", \"model_version\": " + std::to_string(swap.active_version);
    body += ", \"model_path\": \"" + util::json_escape(swap.active_path) + "\"";
    body += ", \"image_size\": " + std::to_string(swap.image_size);
    body += ", \"last_swap_ok\": ";
    body += swap.last_ok ? "true" : "false";
    body += ", \"last_swap_error\": \"" + util::json_escape(swap.last_error) +
            "\"";
    body += ", \"swap_failures\": " + std::to_string(swap.failures);
    body +=
        ", \"queue_depth_clips\": " + std::to_string(
                                          server_->queue_depth_clips());
    body += ", \"queue_capacity_clips\": " +
            std::to_string(server_->queue_capacity_clips());
    body += "}\n";
    return {healthy ? 200 : 503, "application/json", std::move(body)};
  }

  if (path == "/varz") {
    server_->slo_monitor().publish();
    obs::publish_timeline_metrics();
    return {200, "application/json",
            obs::to_json(obs::MetricsRegistry::global().snapshot(),
                         obs::collect_span_report(),
                         obs::collect_manifest()) +
                "\n"};
  }

  if (path == "/tracez") {
    std::size_t limit = 0;
    bool dump = false;
    for (const auto& [key, value] : params) {
      if (key == "limit") {
        // A decimal integer and nothing else: no sign, space or suffix.
        const std::optional<long long> parsed =
            util::parse_integer(value, 0, kMaxTracezLimit);
        if (!parsed) {
          return {400, "application/json",
                  "{\"error\": \"limit must be a decimal integer in [0, " +
                      std::to_string(kMaxTracezLimit) + "]\"}\n"};
        }
        limit = static_cast<std::size_t>(*parsed);
      } else if (key == "dump") {
        dump = value == "1";
      }
    }
    const std::string flight = server_->flight_recorder().to_json(limit);
    if (!dump) {
      return {200, "application/json", flight + "\n"};
    }
    if (config_.flight_dump_path.empty()) {
      return {400, "application/json",
              "{\"error\": \"no flight dump path configured\"}\n"};
    }
    std::string dump_error;
    const bool ok =
        server_->flight_recorder().dump(config_.flight_dump_path, &dump_error);
    std::string body = "{\"dump_path\": \"" +
                       util::json_escape(config_.flight_dump_path) +
                       "\", \"dump_ok\": ";
    body += ok ? "true" : "false";
    if (!ok) {
      body += ", \"dump_error\": \"" + util::json_escape(dump_error) + "\"";
    }
    body += ", \"flight\": " + flight + "}\n";
    return {ok ? 200 : 500, "application/json", std::move(body)};
  }

  return {404, "text/plain; charset=utf-8",
          "unknown path; try /metrics /healthz /varz /tracez\n"};
}

}  // namespace hotspot::serve
