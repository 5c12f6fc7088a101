// Admin endpoint: routing and payload shape via AdminServer::handle(), and
// full HTTP round trips — including scrapes hammering the socket while
// predict traffic is in flight — via a real listener.
#include "serve/admin.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/brnn.h"
#include "nn/serialize.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "support/test_support.h"
#include "tensor/tensor.h"
#include "util/json.h"
#include "util/rng.h"

namespace hotspot::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;
using test_support::test_path;

constexpr std::int64_t kGrid = 16;

std::string save_model(const std::string& name, std::uint64_t seed) {
  util::Rng rng(seed);
  core::BrnnModel model(core::BrnnConfig::compact(kGrid), rng);
  const std::string path = test_path(name);
  EXPECT_TRUE(nn::save_checkpoint(path, model).ok());
  return path;
}

Tensor probe_batch(unsigned seed, std::int64_t count = 4) {
  Tensor images(Shape{count, 1, kGrid, kGrid});
  unsigned state = seed * 2654435761u + 7;
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    state = state * 1664525u + 1013904223u;
    images[i] = (state >> 16) % 2 == 0 ? 0.0f : 1.0f;
  }
  return images;
}

// Server + loaded registry + admin endpoint, torn down in order.
class AdminFixture {
 public:
  explicit AdminFixture(bool load_model = true,
                        const std::string& dump_path = "") {
    if (load_model) {
      EXPECT_TRUE(
          registry_.load(save_model("admin_model.bin", 99), kGrid).ok());
    }
    server_ = std::make_unique<Server>(ServerConfig(), &registry_);
    std::string error;
    EXPECT_TRUE(server_->start(&error)) << error;
    AdminConfig admin_config;
    admin_config.flight_dump_path = dump_path;
    admin_ = std::make_unique<AdminServer>(admin_config, server_.get());
    EXPECT_TRUE(admin_->start(&error)) << error;
    EXPECT_GT(admin_->bound_port(), 0);
  }

  ~AdminFixture() {
    admin_->stop();
    server_->stop();
  }

  ModelRegistry& registry() { return registry_; }
  Server& server() { return *server_; }
  AdminServer& admin() { return *admin_; }

 private:
  ModelRegistry registry_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<AdminServer> admin_;
};

// Every Prometheus sample line must carry a finite value and a name in the
// exporter's charset; returns the count of samples checked.
int check_prometheus_payload(const std::string& body) {
  int samples = 0;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string::npos) {
      end = body.size();
    }
    const std::string line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << "no value in: " << line;
    if (space == std::string::npos) {
      continue;
    }
    const std::string name = line.substr(0, line.find('{'));
    for (const char c : name.substr(0, std::min(name.size(), space))) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      EXPECT_TRUE(ok) << "bad name char in: " << line;
    }
    char* parse_end = nullptr;
    const double value = std::strtod(line.c_str() + space + 1, &parse_end);
    EXPECT_TRUE(parse_end != line.c_str() + space + 1 && *parse_end == '\0')
        << "unparseable value in: " << line;
    EXPECT_TRUE(std::isfinite(value)) << "non-finite value in: " << line;
    ++samples;
  }
  return samples;
}

TEST(ServeAdmin, HealthzHealthyWithModel) {
  AdminFixture fixture;
  const AdminServer::Response response =
      fixture.admin().handle("GET", "/healthz");
  EXPECT_EQ(response.status, 200);
  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::parse_json(response.body, parsed, error)) << error;
  EXPECT_TRUE(parsed.find("healthy")->as_bool());
  EXPECT_TRUE(parsed.find("model_registered")->as_bool());
  EXPECT_EQ(parsed.find("model_version")->as_number(), 1.0);
  EXPECT_EQ(parsed.find("queue_capacity_clips")->as_number(),
            static_cast<double>(ServerConfig().batcher.max_queue_clips));
}

TEST(ServeAdmin, HealthzUnhealthyWithoutModelIs503) {
  AdminFixture fixture(/*load_model=*/false);
  const AdminServer::Response response =
      fixture.admin().handle("GET", "/healthz");
  EXPECT_EQ(response.status, 503);
  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::parse_json(response.body, parsed, error)) << error;
  EXPECT_FALSE(parsed.find("healthy")->as_bool());
  EXPECT_FALSE(parsed.find("model_registered")->as_bool());
}

TEST(ServeAdmin, HealthzReportsFailedSwap) {
  AdminFixture fixture;
  // A bogus swap must flip last_swap_ok without unregistering the model.
  EXPECT_FALSE(
      fixture.registry().load(test_path("no_such_model.bin"), kGrid).ok());
  const AdminServer::Response response =
      fixture.admin().handle("GET", "/healthz");
  EXPECT_EQ(response.status, 503);
  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::parse_json(response.body, parsed, error)) << error;
  EXPECT_TRUE(parsed.find("model_registered")->as_bool());
  EXPECT_FALSE(parsed.find("last_swap_ok")->as_bool());
  EXPECT_EQ(parsed.find("swap_failures")->as_number(), 1.0);
  EXPECT_FALSE(parsed.find("last_swap_error")->as_string().empty());
}

TEST(ServeAdmin, MetricsScrapeIsValidPrometheusWithSloGauges) {
  AdminFixture fixture;
  ServeClient client;
  std::string error;
  ASSERT_TRUE(
      client.connect("127.0.0.1", fixture.server().bound_port(), &error));
  PredictOutcome outcome;
  ASSERT_TRUE(client.predict("scrape-tenant", probe_batch(3), &outcome,
                             &error));
  ASSERT_TRUE(outcome.ok);
  const AdminServer::Response response =
      fixture.admin().handle("GET", "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_GT(check_prometheus_payload(response.body), 0);
  // The scrape publishes the SLO gauges before rendering.
  EXPECT_NE(response.body.find("serve_slo_error_budget_remaining"),
            std::string::npos);
  EXPECT_NE(response.body.find("serve_slo_burn_rate_fast"),
            std::string::npos);
  // Request-phase histograms from the traced predict.
  EXPECT_NE(response.body.find("serve_request_infer_seconds"),
            std::string::npos);
}

TEST(ServeAdmin, VarzIsStrictJsonWithManifest) {
  AdminFixture fixture;
  const AdminServer::Response response =
      fixture.admin().handle("GET", "/varz");
  EXPECT_EQ(response.status, 200);
  util::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(util::parse_json(response.body, parsed, error)) << error;
  ASSERT_NE(parsed.find("manifest"), nullptr);
  EXPECT_NE(parsed.find("manifest")->find("git_sha"), nullptr);
  EXPECT_NE(parsed.find("counters"), nullptr);
  EXPECT_NE(parsed.find("gauges"), nullptr);
}

TEST(ServeAdmin, TracezListsRecentRequestsAndHonorsLimit) {
  AdminFixture fixture;
  ServeClient client;
  std::string error;
  ASSERT_TRUE(
      client.connect("127.0.0.1", fixture.server().bound_port(), &error));
  for (int i = 0; i < 5; ++i) {
    PredictOutcome outcome;
    ASSERT_TRUE(client.predict("tracez-tenant",
                               probe_batch(static_cast<unsigned>(i)),
                               &outcome, &error));
    ASSERT_TRUE(outcome.ok);
  }
  const AdminServer::Response all = fixture.admin().handle("GET", "/tracez");
  util::JsonValue parsed;
  ASSERT_TRUE(util::parse_json(all.body, parsed, error)) << error;
  EXPECT_EQ(parsed.find("recorded")->as_number(), 5.0);
  EXPECT_EQ(parsed.find("entries")->as_array().size(), 5u);
  const auto& last = parsed.find("entries")->as_array().back();
  EXPECT_EQ(last.find("tenant")->as_string(), "tracez-tenant");
  EXPECT_EQ(last.find("clips")->as_number(), 4.0);
  EXPECT_EQ(last.find("outcome")->as_string(), "ok");
  EXPECT_EQ(last.find("model_version")->as_number(), 1.0);

  const AdminServer::Response limited =
      fixture.admin().handle("GET", "/tracez?limit=2");
  ASSERT_TRUE(util::parse_json(limited.body, parsed, error)) << error;
  EXPECT_EQ(parsed.find("entries")->as_array().size(), 2u);
  const AdminServer::Response widest =
      fixture.admin().handle("GET", "/tracez?limit=1048576");
  EXPECT_EQ(widest.status, 200);

  // Anything but a decimal integer in [0, 2^20] is a typed 400, never a
  // silently reinterpreted limit.
  for (const char* bad : {"abc", "5x", "", "-1", "+5", " 5", "0x10",
                          "1048577", "99999999999999999999999"}) {
    const AdminServer::Response refused =
        fixture.admin().handle("GET", std::string("/tracez?limit=") + bad);
    EXPECT_EQ(refused.status, 400) << "limit=" << bad;
    ASSERT_TRUE(util::parse_json(refused.body, parsed, error))
        << error << "\n" << refused.body;
    ASSERT_NE(parsed.find("error"), nullptr) << refused.body;
    EXPECT_TRUE(parsed.find("error")->is_string());
  }
}

TEST(ServeAdmin, TracezDumpWritesConfiguredFile) {
  const std::string dump_path = test_path("tracez_dump.json");
  AdminFixture fixture(/*load_model=*/true, dump_path);
  ServeClient client;
  std::string error;
  ASSERT_TRUE(
      client.connect("127.0.0.1", fixture.server().bound_port(), &error));
  PredictOutcome outcome;
  ASSERT_TRUE(client.predict("dump-tenant", probe_batch(1), &outcome,
                             &error));
  const AdminServer::Response response =
      fixture.admin().handle("GET", "/tracez?dump=1");
  EXPECT_EQ(response.status, 200);
  util::JsonValue parsed;
  ASSERT_TRUE(util::parse_json(response.body, parsed, error)) << error;
  EXPECT_TRUE(parsed.find("dump_ok")->as_bool());
  util::JsonValue dumped;
  ASSERT_TRUE(util::parse_json_file(dump_path, dumped, error)) << error;
  EXPECT_EQ(dumped.find("entries")->as_array().size(), 1u);
  std::remove(dump_path.c_str());
}

TEST(ServeAdmin, TracezDumpWithoutPathIsBadRequest) {
  AdminFixture fixture;
  EXPECT_EQ(fixture.admin().handle("GET", "/tracez?dump=1").status, 400);
}

TEST(ServeAdmin, UnknownPathIs404AndNonGetIs405) {
  AdminFixture fixture;
  EXPECT_EQ(fixture.admin().handle("GET", "/nope").status, 404);
  EXPECT_EQ(fixture.admin().handle("POST", "/metrics").status, 405);
}

TEST(ServeAdmin, ConcurrentScrapeUnderLoad) {
  AdminFixture fixture;
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 12;
  std::atomic<int> predicted{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&fixture, &predicted, c] {
      ServeClient client;
      std::string error;
      ASSERT_TRUE(client.connect("127.0.0.1", fixture.server().bound_port(),
                                 &error))
          << error;
      for (int r = 0; r < kRequestsPerClient; ++r) {
        PredictOutcome outcome;
        ASSERT_TRUE(client.predict(
            "load-" + std::to_string(c),
            probe_batch(static_cast<unsigned>(c * 100 + r)), &outcome,
            &error))
            << error;
        ASSERT_TRUE(outcome.ok) << outcome.detail;
        ++predicted;
      }
    });
  }
  // Scrapers hammer /metrics and /tracez over real sockets while the
  // predict traffic flows. Every payload must parse cleanly — torn reads
  // or non-finite quantiles fail the assertions inside.
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 3; ++s) {
    scrapers.emplace_back([&fixture] {
      const auto scrape = [&fixture](const char* path) {
        HttpResponse response;
        std::string error;
        EXPECT_EQ(http_get("127.0.0.1", fixture.admin().bound_port(), path,
                           &response, &error),
                  HttpGetResult::kOk)
            << error;
        EXPECT_EQ(response.status, 200) << path;
        return response.body;
      };
      for (int i = 0; i < 20; ++i) {
        EXPECT_GT(check_prometheus_payload(scrape("/metrics")), 0);
        const std::string body = scrape("/tracez");
        util::JsonValue parsed;
        std::string error;
        ASSERT_TRUE(util::parse_json(body, parsed, error))
            << error << "\n" << body;
      }
    });
  }
  for (std::thread& thread : clients) {
    thread.join();
  }
  for (std::thread& thread : scrapers) {
    thread.join();
  }
  EXPECT_EQ(predicted.load(), kClients * kRequestsPerClient);
  // After the load drains, the flight recorder saw every request.
  EXPECT_EQ(fixture.server().flight_recorder().recorded(),
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
}

}  // namespace
}  // namespace hotspot::serve
