// Request-scoped tracing for the serve path (DESIGN.md §16).
//
// A RequestTrace follows one predict request end to end and records where
// its wall time went: decode (frame payload -> unpacked tensor), queue
// (admission queue wait), batch (batch formation after the worker popped
// it), inference (the fused classifier call), and encode (response frame
// build + send). The server allocates the trace at frame decode, the
// MicroBatcher fills in the queue/batch/infer phases plus the model version
// the fused batch resolved, and the server closes it out with the outcome.
// Phases are additive views of one request's latency, not of the batch: a
// request fused with seven others still reports its own submit->pop wait.
//
// The FlightRecorder is the serve-path analogue of the scan journal's
// crash story (§13): a bounded ring of the last N *completed* request
// summaries kept in memory at all times, so a server killed under load
// leaves evidence of what it was doing. record() is lock-light — one atomic
// slot claim plus a per-slot spinlock held only for a struct copy — so the
// hot path never serializes requests behind a global mutex. dump() writes
// the ring as strict JSON with the same tmp+fsync+rename discipline (and
// the same injectable fault points) as the journal's snapshots, which is
// what the fatal-signal handler in hotspot_serve and /tracez?dump=1 call.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace hotspot::obs {

// How a traced request ended. Everything except kOk counts against the SLO
// error budget (slo.h).
enum class RequestOutcome : std::uint8_t {
  kOk = 0,
  kShed = 1,      // admission queue full — load was shed
  kRejected = 2,  // typed reject (bad request, grid mismatch, no model...)
  kError = 3,     // classifier threw; client saw Reject(kBadRequest)
};

const char* request_outcome_name(RequestOutcome outcome);

struct RequestTrace {
  std::uint64_t request_id = 0;         // server-allocated, monotonic
  std::uint32_t client_request_id = 0;  // echoed from the predict payload
  std::string tenant;
  std::uint32_t clips = 0;
  std::uint64_t start_ns = 0;  // since the flight recorder's epoch
  // Latency breakdown, seconds. Phases a request never reached stay 0.
  double decode_seconds = 0.0;
  double queue_seconds = 0.0;
  double batch_seconds = 0.0;
  double infer_seconds = 0.0;
  double encode_seconds = 0.0;
  double total_seconds = 0.0;
  std::uint64_t model_version = 0;  // version the fused batch resolved
  std::uint32_t hotspots = 0;       // clips labeled 1
  RequestOutcome outcome = RequestOutcome::kOk;
};

// One trace as a strict-JSON object (util/json-parseable; non-finite
// seconds are written as 0 by util::json_number).
std::string request_trace_json(const RequestTrace& trace);

class FlightRecorder {
 public:
  // `capacity` is clamped to >= 1. The epoch for start_ns is captured here.
  explicit FlightRecorder(std::size_t capacity = 1024);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Steady-clock nanoseconds since this recorder was constructed; the
  // timebase every recorded start_ns (and the Chrome flow export) shares.
  std::uint64_t relative_now_ns() const;

  // Records a completed request. Thread-safe and lock-light: an atomic
  // fetch_add claims a slot, a per-slot spinlock covers the copy. Two
  // writers contend only when they land on the same slot (a full ring lap
  // apart), never globally.
  void record(const RequestTrace& trace);

  // The surviving entries, oldest first. `bounded_spin` limits how long a
  // locked slot is waited for before it is skipped — the fatal-signal dump
  // path sets it so a crash mid-record can never deadlock the handler.
  std::vector<RequestTrace> snapshot(bool bounded_spin = false) const;

  std::size_t capacity() const { return capacity_; }
  // Total requests ever recorded (recorded() - size of snapshot = dropped).
  std::uint64_t recorded() const {
    return next_.load(std::memory_order_acquire);
  }

  // The ring as one strict-JSON object: {"capacity", "recorded",
  // "dropped", "entries": [...]}. `max_entries` 0 keeps every survivor;
  // otherwise only the newest max_entries are emitted.
  std::string to_json(std::size_t max_entries = 0,
                      bool bounded_spin = false) const;

  // Atomically publishes to_json() to `path` (tmp+fsync+rename, journal
  // fault points). Bounded spins: safe from the fatal-signal handler.
  // False with `error` set (when non-null) on any write failure.
  bool dump(const std::string& path, std::string* error = nullptr) const;

 private:
  struct Slot {
    mutable std::atomic<bool> locked{false};
    std::uint64_t sequence = 0;  // 1-based claim number; 0 = never written
    RequestTrace trace;
  };

  std::size_t capacity_;
  std::int64_t epoch_ns_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
};

}  // namespace hotspot::obs
