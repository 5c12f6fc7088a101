#include "obs/request_trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "util/atomic_file.h"
#include "util/fault_injection.h"
#include "util/json.h"

namespace hotspot::obs {
namespace {

using util::json_number;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* request_outcome_name(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk:
      return "ok";
    case RequestOutcome::kShed:
      return "shed";
    case RequestOutcome::kRejected:
      return "rejected";
    case RequestOutcome::kError:
      return "error";
  }
  return "unknown";
}

std::string request_trace_json(const RequestTrace& trace) {
  std::string out;
  out.reserve(320);
  out += "{\"request_id\": " + std::to_string(trace.request_id);
  out += ", \"client_request_id\": " + std::to_string(trace.client_request_id);
  out += ", \"tenant\": \"" + util::json_escape(trace.tenant) + "\"";
  out += ", \"clips\": " + std::to_string(trace.clips);
  out += ", \"outcome\": \"";
  out += request_outcome_name(trace.outcome);
  out += "\", \"model_version\": " + std::to_string(trace.model_version);
  out += ", \"hotspots\": " + std::to_string(trace.hotspots);
  out += ", \"start_ns\": " + std::to_string(trace.start_ns);
  out += ", \"decode_seconds\": " + json_number(trace.decode_seconds);
  out += ", \"queue_seconds\": " + json_number(trace.queue_seconds);
  out += ", \"batch_seconds\": " + json_number(trace.batch_seconds);
  out += ", \"infer_seconds\": " + json_number(trace.infer_seconds);
  out += ", \"encode_seconds\": " + json_number(trace.encode_seconds);
  out += ", \"total_seconds\": " + json_number(trace.total_seconds);
  out += "}";
  return out;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)),
      epoch_ns_(steady_now_ns()),
      slots_(new Slot[capacity_]) {}

std::uint64_t FlightRecorder::relative_now_ns() const {
  const std::int64_t now = steady_now_ns();
  return now > epoch_ns_ ? static_cast<std::uint64_t>(now - epoch_ns_) : 0;
}

void FlightRecorder::record(const RequestTrace& trace) {
  const std::uint64_t sequence =
      next_.fetch_add(1, std::memory_order_acq_rel) + 1;
  Slot& slot = slots_[(sequence - 1) % capacity_];
  // Unbounded spin: the holder is another record() copy or a snapshot copy,
  // both a few hundred nanoseconds. Writers never block behind the whole
  // ring, only behind this one slot.
  while (slot.locked.exchange(true, std::memory_order_acquire)) {
  }
  slot.sequence = sequence;
  slot.trace = trace;
  slot.locked.store(false, std::memory_order_release);
}

std::vector<RequestTrace> FlightRecorder::snapshot(bool bounded_spin) const {
  std::vector<std::pair<std::uint64_t, RequestTrace>> entries;
  entries.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    bool locked = false;
    // In the fatal-dump path a slot may be held by the very thread the
    // signal interrupted; skip it after a bounded spin instead of hanging.
    for (int spin = 0; spin < (bounded_spin ? 10000 : 1 << 28); ++spin) {
      if (!slot.locked.exchange(true, std::memory_order_acquire)) {
        locked = true;
        break;
      }
    }
    if (!locked) {
      continue;
    }
    if (slot.sequence != 0) {
      entries.emplace_back(slot.sequence, slot.trace);
    }
    slot.locked.store(false, std::memory_order_release);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<RequestTrace> traces;
  traces.reserve(entries.size());
  for (auto& [sequence, trace] : entries) {
    traces.push_back(std::move(trace));
  }
  return traces;
}

std::string FlightRecorder::to_json(std::size_t max_entries,
                                    bool bounded_spin) const {
  std::vector<RequestTrace> traces = snapshot(bounded_spin);
  if (max_entries > 0 && traces.size() > max_entries) {
    traces.erase(traces.begin(),
                 traces.end() - static_cast<std::ptrdiff_t>(max_entries));
  }
  const std::uint64_t total = recorded();
  std::string out = "{\"capacity\": " + std::to_string(capacity_);
  out += ", \"recorded\": " + std::to_string(total);
  out += ", \"dropped\": " +
         std::to_string(total > capacity_ ? total - capacity_ : 0);
  out += ", \"entries\": [";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += request_trace_json(traces[i]);
  }
  out += "]}";
  return out;
}

bool FlightRecorder::dump(const std::string& path, std::string* error) const {
  // Journal fault points on purpose: the flight recorder extends the scan
  // journal's crash story to the server, and the chaos tests injure both
  // through one set of switches.
  util::AtomicFileWriter writer(path, {util::FaultPoint::kJournalWrite,
                                       util::FaultPoint::kJournalFlush,
                                       util::FaultPoint::kJournalRename});
  const std::string text = to_json(0, /*bounded_spin=*/true) + "\n";
  if (!writer.ok() || !writer.write(text.data(), text.size()) ||
      !writer.finalize()) {
    if (error != nullptr) {
      *error = writer.error();
    }
    return false;
  }
  return true;
}

}  // namespace hotspot::obs
