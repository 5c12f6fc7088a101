// End-to-end server tests: an in-process Server on an ephemeral port driven
// through ServeClient. Covers the §15 contract — predict answers are
// bit-identical to direct model inference, typed rejects for every refusal
// path, hot-swap over the wire, deterministic load-shedding via the stall
// fault point, and clean shutdown.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/brnn.h"
#include "nn/serialize.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "support/test_support.h"
#include "tensor/tensor.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace hotspot::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr std::int64_t kGrid = 16;

std::string save_model(const std::string& name, std::uint64_t seed) {
  util::Rng rng(seed);
  core::BrnnModel model(core::BrnnConfig::compact(kGrid), rng);
  const std::string path = test_support::test_path(name);
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

// Server + loaded registry + connected client, torn down in order.
class ServerFixture {
 public:
  explicit ServerFixture(ServerConfig config = ServerConfig(),
                         bool load_model = true) {
    if (load_model) {
      model_path_ = save_model("server_model.bin", 77);
      EXPECT_TRUE(registry_.load(model_path_, kGrid).ok());
    }
    server_ = std::make_unique<Server>(config, &registry_);
    std::string error;
    EXPECT_TRUE(server_->start(&error)) << error;
    EXPECT_GT(server_->bound_port(), 0);
    EXPECT_TRUE(client_.connect("127.0.0.1", server_->bound_port(), &error))
        << error;
  }

  ~ServerFixture() {
    client_.close();
    server_->stop();
  }

  ModelRegistry& registry() { return registry_; }
  Server& server() { return *server_; }
  ServeClient& client() { return client_; }
  const std::string& model_path() const { return model_path_; }

 private:
  ModelRegistry registry_;
  std::string model_path_;
  std::unique_ptr<Server> server_;
  ServeClient client_;
};

TEST(ServeServer, PredictMatchesDirectModelBitExactly) {
  ServerFixture fixture;
  const Tensor images = probe_batch(1, 5);
  const std::vector<int> reference =
      fixture.registry().active()->predict(images);
  PredictOutcome outcome;
  std::string error;
  ASSERT_TRUE(fixture.client().predict("tenant-a", images, &outcome, &error))
      << error;
  ASSERT_TRUE(outcome.ok) << outcome.detail;
  EXPECT_EQ(outcome.labels, reference);
  // Replay: the wire round-trip (bit-pack, frame, unpack) is lossless.
  PredictOutcome replay;
  ASSERT_TRUE(fixture.client().predict("tenant-a", images, &replay, &error));
  EXPECT_EQ(replay.labels, reference);
}

TEST(ServeServer, PingRoundTrips) {
  ServerFixture fixture;
  std::string error;
  EXPECT_TRUE(fixture.client().ping(0xfeedc0de, &error)) << error;
}

TEST(ServeServer, MalformedFrameGetsTypedRejectAndConnectionDrop) {
  ServerFixture fixture;
  // Garbage that cannot be a frame header: the server must answer with
  // Reject(kBadFrame) and then drop the connection.
  std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4,
                                       5,    6,    7,    8};
  Frame response;
  std::string error;
  ASSERT_TRUE(fixture.client().send_raw(garbage, &response, &error)) << error;
  ASSERT_EQ(response.type, MessageType::kReject);
  Reject reject;
  ASSERT_TRUE(decode_reject(response.payload, &reject));
  EXPECT_EQ(reject.reason, RejectReason::kBadFrame);
  // The stream is untrusted after a framing error: subsequent requests on
  // this connection fail at the transport level.
  PredictOutcome outcome;
  EXPECT_FALSE(fixture.client().predict("tenant-a", probe_batch(2),
                                        &outcome, &error));
  // A fresh connection works fine — the server itself is healthy.
  ServeClient fresh;
  ASSERT_TRUE(fresh.connect("127.0.0.1", fixture.server().bound_port(),
                            &error))
      << error;
  EXPECT_TRUE(fresh.ping(7, &error)) << error;
}

TEST(ServeServer, CorruptFrameAlsoRejected) {
  ServerFixture fixture;
  // A well-formed frame with one payload bit flipped: CRC catches it.
  std::vector<std::uint8_t> frame =
      encode_frame(MessageType::kPing, encode_token(42));
  frame[13] ^= 0x01;  // payload byte
  Frame response;
  std::string error;
  ASSERT_TRUE(fixture.client().send_raw(frame, &response, &error)) << error;
  ASSERT_EQ(response.type, MessageType::kReject);
  Reject reject;
  ASSERT_TRUE(decode_reject(response.payload, &reject));
  EXPECT_EQ(reject.reason, RejectReason::kBadFrame);
}

TEST(ServeServer, GridMismatchAndOversizedRequestsGetTypedRejects) {
  ServerConfig config;
  config.max_clips_per_request = 4;
  config.batcher.max_batch_clips = 4;
  ServerFixture fixture(config);
  std::string error;
  // Wrong grid: model serves kGrid=16, send 8.
  Tensor wrong_grid(Shape{1, 1, 8, 8});
  PredictOutcome outcome;
  ASSERT_TRUE(fixture.client().predict("t", wrong_grid, &outcome, &error))
      << error;
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.reason, RejectReason::kBadRequest);
  // Too many clips for one request.
  PredictOutcome oversized;
  ASSERT_TRUE(fixture.client().predict("t", probe_batch(3, 5), &oversized,
                                       &error))
      << error;
  EXPECT_FALSE(oversized.ok);
  EXPECT_EQ(oversized.reason, RejectReason::kTooLarge);
  // Connection still serves correct requests afterwards.
  PredictOutcome good;
  ASSERT_TRUE(fixture.client().predict("t", probe_batch(4, 2), &good,
                                       &error))
      << error;
  EXPECT_TRUE(good.ok) << good.detail;
}

TEST(ServeServer, NoModelRegisteredIsTypedReject) {
  ServerFixture fixture(ServerConfig(), /*load_model=*/false);
  PredictOutcome outcome;
  std::string error;
  ASSERT_TRUE(fixture.client().predict("t", probe_batch(5), &outcome,
                                       &error))
      << error;
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.reason, RejectReason::kModelUnavailable);
}

TEST(ServeServer, HotSwapOverTheWire) {
  ServerFixture fixture;
  const std::string other = save_model("server_swap_b.bin", 88);
  const Tensor probe = probe_batch(6);
  PredictOutcome before;
  std::string error;
  ASSERT_TRUE(fixture.client().predict("t", probe, &before, &error));
  ASSERT_TRUE(before.ok);

  std::uint64_t version = 0;
  std::optional<Reject> reject;
  ASSERT_TRUE(fixture.client().swap_model(other, kGrid, &version, &reject,
                                          &error))
      << error;
  EXPECT_FALSE(reject.has_value());
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(fixture.registry().version(), 2u);

  // Served answers now come from the new archive, and match it bit-exactly.
  PredictOutcome after;
  ASSERT_TRUE(fixture.client().predict("t", probe, &after, &error));
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.labels, fixture.registry().active()->predict(probe));
}

TEST(ServeServer, SwapToCorruptArchiveRefusedOldModelServesOn) {
  ServerFixture fixture;
  const std::string corrupt = save_model("server_swap_corrupt.bin", 89);
  ASSERT_TRUE(util::corrupt_flip_bit(corrupt, 300, 2));
  const Tensor probe = probe_batch(7);
  PredictOutcome before;
  std::string error;
  ASSERT_TRUE(fixture.client().predict("t", probe, &before, &error));
  ASSERT_TRUE(before.ok);

  std::uint64_t version = 0;
  std::optional<Reject> reject;
  ASSERT_TRUE(fixture.client().swap_model(corrupt, kGrid, &version, &reject,
                                          &error))
      << error;
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(reject->reason, RejectReason::kSwapFailed);
  EXPECT_EQ(fixture.registry().version(), 1u);
  // Old model still answers, identically.
  PredictOutcome after;
  ASSERT_TRUE(fixture.client().predict("t", probe, &after, &error));
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.labels, before.labels);
}

TEST(ServeServer, FullAdmissionQueueShedsWithTypedReject) {
  util::ScopedFaultInjection guard;
  ServerConfig config;
  config.max_clips_per_request = 4;
  config.batcher.max_batch_clips = 4;
  config.batcher.max_queue_clips = 4;
  ServerFixture fixture(config);
  // Wedge the batch worker inside predict: the first (and every) model
  // call stalls long enough for us to fill the queue behind it.
  util::fault_set_stall_ms(700);
  util::fault_arm_sticky(util::FaultPoint::kScanPredictStall);

  std::string error;
  // Request 1 on its own connection: popped by the worker, now stalled.
  ServeClient first;
  ASSERT_TRUE(first.connect("127.0.0.1", fixture.server().bound_port(),
                            &error));
  std::atomic<bool> first_ok{false};
  std::thread first_thread([&] {
    PredictOutcome outcome;
    std::string thread_error;
    if (first.predict("t", probe_batch(8, 2), &outcome, &thread_error) &&
        outcome.ok) {
      first_ok.store(true);
    }
  });
  // Give the worker time to pop request 1 and enter the stalled predict.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Request 2 fills the 4-clip queue.
  ServeClient second;
  ASSERT_TRUE(second.connect("127.0.0.1", fixture.server().bound_port(),
                             &error));
  std::atomic<bool> second_ok{false};
  std::thread second_thread([&] {
    PredictOutcome outcome;
    std::string thread_error;
    if (second.predict("t", probe_batch(9, 4), &outcome, &thread_error) &&
        outcome.ok) {
      second_ok.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Request 3 cannot fit: shed, with a typed reject, without blocking.
  PredictOutcome shed;
  ASSERT_TRUE(fixture.client().predict("t", probe_batch(10, 1), &shed,
                                       &error))
      << error;
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.reason, RejectReason::kQueueFull);

  first_thread.join();
  second_thread.join();
  // The wedged requests still completed once the stall elapsed.
  EXPECT_TRUE(first_ok.load());
  EXPECT_TRUE(second_ok.load());
}

TEST(ServeServer, CrossClientRequestsFuseWithBitIdenticalAnswers) {
  ServerConfig config;
  config.batcher.batch_deadline = std::chrono::microseconds(3000);
  ServerFixture fixture(config);
  const int kClients = 4;
  const int kRequests = 10;
  // References computed directly against the served model.
  std::vector<std::vector<std::vector<int>>> expected(kClients);
  const std::shared_ptr<ServableModel> model = fixture.registry().active();
  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kRequests; ++r) {
      const unsigned seed = static_cast<unsigned>(c * 1000 + r + 11);
      expected[static_cast<std::size_t>(c)].push_back(
          model->predict(probe_batch(seed, 1 + r % 3)));
    }
  }
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServeClient client;
      std::string error;
      if (!client.connect("127.0.0.1", fixture.server().bound_port(),
                          &error)) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRequests; ++r) {
        const unsigned seed = static_cast<unsigned>(c * 1000 + r + 11);
        PredictOutcome outcome;
        if (!client.predict("tenant-" + std::to_string(c),
                            probe_batch(seed, 1 + r % 3), &outcome, &error) ||
            !outcome.ok) {
          ++failures;
          continue;
        }
        if (outcome.labels != expected[static_cast<std::size_t>(c)]
                                      [static_cast<std::size_t>(r)]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServeServer, ConnectionsBeyondCapGetTypedReject) {
  ServerConfig config;
  config.max_connections = 2;
  ServerFixture fixture(config);  // the fixture's client is connection 1
  const int port = fixture.server().bound_port();
  std::string error;
  ServeClient second;
  ASSERT_TRUE(second.connect("127.0.0.1", port, &error)) << error;
  // A round trip proves connection 2 is served before the third arrives.
  ASSERT_TRUE(second.ping(2, &error)) << error;

  ServeClient third;
  ASSERT_TRUE(third.connect("127.0.0.1", port, &error)) << error;
  Frame response;
  ASSERT_TRUE(third.send_raw(encode_frame(MessageType::kPing, encode_token(3)),
                             &response, &error))
      << error;
  ASSERT_EQ(response.type, MessageType::kReject);
  Reject reject;
  ASSERT_TRUE(decode_reject(response.payload, &reject));
  EXPECT_EQ(reject.reason, RejectReason::kQueueFull);
  EXPECT_EQ(reject.request_id, 0u);
  EXPECT_EQ(reject.detail, "connection limit");

  // The two served connections are untouched.
  EXPECT_TRUE(fixture.client().ping(1, &error)) << error;
  EXPECT_TRUE(second.ping(4, &error)) << error;

  // A closed connection frees its slot once its reader has returned.
  second.close();
  bool served = false;
  for (int attempt = 0; attempt < 100 && !served; ++attempt) {
    ServeClient next;
    ASSERT_TRUE(next.connect("127.0.0.1", port, &error)) << error;
    served = next.ping(5, &error);
    if (!served) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(served) << error;
}

TEST(ServeServer, StatsReportServeMetrics) {
  ServerFixture fixture;
  PredictOutcome outcome;
  std::string error;
  ASSERT_TRUE(fixture.client().predict("stats-tenant", probe_batch(12),
                                       &outcome, &error));
  ASSERT_TRUE(outcome.ok);
  std::string json;
  ASSERT_TRUE(fixture.client().stats(&json, &error)) << error;
  EXPECT_NE(json.find("serve.requests"), std::string::npos);
  EXPECT_NE(json.find("serve.request_seconds"), std::string::npos);
  EXPECT_NE(json.find("serve.tenant.stats-tenant.requests"),
            std::string::npos);
}

TEST(ServeServer, ShutdownFrameStopsTheServer) {
  ServerFixture fixture;
  std::string error;
  ASSERT_TRUE(fixture.client().shutdown_server(&error)) << error;
  // wait() must return promptly once the Shutdown frame is processed.
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    fixture.server().wait();
    returned.store(true);
  });
  waiter.join();
  EXPECT_TRUE(returned.load());
  fixture.server().stop();
  EXPECT_FALSE(fixture.server().running());
}

TEST(ServeServer, StateFileLetsARestartedServerResume) {
  // The acceptance path: register a model with persistence on, tear the
  // whole server down (the "crash"), and bring up a fresh registry+server
  // from the state file. The restarted server serves identical answers.
  const std::string state = test_support::test_path("server_state.json");
  std::remove(state.c_str());
  const std::string model_path = save_model("server_resume.bin", 91);
  const Tensor probe = probe_batch(13);
  std::vector<int> reference;
  {
    ModelRegistry registry(state);
    ASSERT_TRUE(registry.load(model_path, kGrid).ok());
    Server server((ServerConfig()), &registry);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.bound_port(), &error));
    PredictOutcome outcome;
    ASSERT_TRUE(client.predict("t", probe, &outcome, &error));
    ASSERT_TRUE(outcome.ok);
    reference = outcome.labels;
    client.close();
    server.stop();
  }
  {
    ModelRegistry registry(state);
    ASSERT_TRUE(registry.restore().ok());
    Server server((ServerConfig()), &registry);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.bound_port(), &error));
    PredictOutcome outcome;
    ASSERT_TRUE(client.predict("t", probe, &outcome, &error));
    ASSERT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.labels, reference);
    client.close();
    server.stop();
  }
}

TEST(ServeServer, ResponsesCarryMonotonicTraceIds) {
  ServerFixture fixture;
  PredictOutcome outcome;
  std::string error;
  std::uint64_t previous = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fixture.client().predict(
        "trace-tenant", probe_batch(static_cast<unsigned>(i)), &outcome,
        &error))
        << error;
    ASSERT_TRUE(outcome.ok);
    EXPECT_GT(fixture.client().last_trace_id(), previous)
        << "trace ids must be echoed and increase per request";
    previous = fixture.client().last_trace_id();
  }
  // Rejects carry the trace id too: the failed request is findable in
  // /tracez by the id the client saw.
  ASSERT_TRUE(fixture.client().predict(
      "trace-tenant", probe_batch(9, /*count=*/128), &outcome, &error));
  EXPECT_FALSE(outcome.ok);
  EXPECT_GT(fixture.client().last_trace_id(), previous);
}

TEST(ServeServer, V1ClientIsRejected) {
  ServerFixture fixture;
  // Hand-roll a ping in the retired v1 wire format (no trace id, CRC over
  // the payload only): the server answers with a typed kBadFrame reject
  // naming the version, then drops the connection.
  const std::vector<std::uint8_t> payload = encode_token(42);
  std::vector<std::uint8_t> frame = encode_frame(MessageType::kPing, payload);
  frame.erase(frame.begin() + 12, frame.begin() + 20);  // the trace id
  frame[4] = 1;
  util::Crc32 crc;
  crc.update(payload.data(), payload.size());
  for (std::size_t i = 0; i < 4; ++i) {
    frame[frame.size() - 4 + i] =
        static_cast<std::uint8_t>(crc.value() >> (8 * i));
  }
  Frame response;
  std::string error;
  ASSERT_TRUE(fixture.client().send_raw(frame, &response, &error)) << error;
  ASSERT_EQ(response.type, MessageType::kReject);
  Reject reject;
  ASSERT_TRUE(decode_reject(response.payload, &reject));
  EXPECT_EQ(reject.reason, RejectReason::kBadFrame);
  EXPECT_EQ(reject.detail, frame_status_name(FrameStatus::kBadVersion));
}

TEST(ServeServer, FlightRecorderCapturesRequestBreakdown) {
  ServerFixture fixture;
  PredictOutcome outcome;
  std::string error;
  ASSERT_TRUE(fixture.client().predict("flight-tenant", probe_batch(5, 6),
                                       &outcome, &error))
      << error;
  ASSERT_TRUE(outcome.ok);
  const std::vector<obs::RequestTrace> traces =
      fixture.server().flight_recorder().snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const obs::RequestTrace& trace = traces.front();
  EXPECT_EQ(trace.request_id, fixture.client().last_trace_id());
  EXPECT_EQ(trace.tenant, "flight-tenant");
  EXPECT_EQ(trace.clips, 6u);
  EXPECT_EQ(trace.model_version, 1u);
  EXPECT_EQ(trace.outcome, obs::RequestOutcome::kOk);
  // The phase breakdown is internally consistent: every phase non-negative
  // and no phase longer than the whole request.
  EXPECT_GT(trace.total_seconds, 0.0);
  for (const double phase :
       {trace.decode_seconds, trace.queue_seconds, trace.batch_seconds,
        trace.infer_seconds, trace.encode_seconds}) {
    EXPECT_GE(phase, 0.0);
    EXPECT_LE(phase, trace.total_seconds);
  }
  EXPECT_GT(trace.infer_seconds, 0.0);  // the classifier really ran
  // SLO window saw the request as good.
  const obs::SloMonitor::Status slo = fixture.server().slo_monitor().status();
  EXPECT_EQ(slo.window_total, 1u);
  EXPECT_EQ(slo.window_bad, 0u);
}

TEST(ServeServer, ShedAndRejectedRequestsBurnSloBudget) {
  ServerConfig config;
  config.max_clips_per_request = 4;
  ServerFixture fixture(config);
  PredictOutcome outcome;
  std::string error;
  // Oversized: typed reject, recorded as bad.
  ASSERT_TRUE(fixture.client().predict("slo-tenant", probe_batch(1, 8),
                                       &outcome, &error));
  EXPECT_FALSE(outcome.ok);
  // In budget: good.
  ASSERT_TRUE(fixture.client().predict("slo-tenant", probe_batch(2, 2),
                                       &outcome, &error));
  EXPECT_TRUE(outcome.ok);
  const obs::SloMonitor::Status slo = fixture.server().slo_monitor().status();
  EXPECT_EQ(slo.window_total, 2u);
  EXPECT_EQ(slo.window_bad, 1u);
  const std::vector<obs::RequestTrace> traces =
      fixture.server().flight_recorder().snapshot();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].outcome, obs::RequestOutcome::kRejected);
  EXPECT_EQ(traces[1].outcome, obs::RequestOutcome::kOk);
}

}  // namespace
}  // namespace hotspot::serve
