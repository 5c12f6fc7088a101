// Measurement harness of the end-to-end benchmark: order statistics, the
// open-loop load generator, and the bisection over a fixed rate grid.
//
// Nothing here knows about the detector; the serve workload plugs the real
// client in through SendFn, and harness_test.cpp plugs in fakes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace hotspot::e2e {

// Median; the mean of the two middle values for an even count. Requires a
// non-empty input.
double median(std::vector<double> values);

// First quartile, median and third quartile with the same cut points as
// Python's statistics.quantiles(values, n=4) (the default "exclusive"
// method). Requires at least two values.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

// A latency tail reported the only way a sample supports: the highest whole
// percentile that still has at least kTailBeyond samples above it. 1000
// samples give p99, 500 give p98; a sample too small for any percentile to
// leave kTailBeyond beyond it reports none.
inline constexpr std::size_t kTailBeyond = 10;
struct Tail {
  int percentile = 0;
  double value = 0.0;
  std::size_t samples = 0;
};
std::optional<Tail> tail_percentile(std::vector<double> samples);

// One request of an open-loop schedule: when it is due, measured from the
// start of the phase, and how many clips it carries.
struct Arrival {
  double due_s = 0.0;
  int clips = 1;
};

// Request sizes 1, 4 and 16 clips drawn at 70/20/10%.
inline constexpr double kMeanRequestClips = 0.7 * 1 + 0.2 * 4 + 0.1 * 16;

// `count` Poisson arrivals offering `clips_per_s` on average (exponential
// gaps at clips_per_s / kMeanRequestClips requests per second). A pure
// function of its arguments.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double clips_per_s,
                                      std::size_t count);

// Performs request `index` of the schedule on connection `connection` and
// blocks until its answer; false when the request failed.
using SendFn = std::function<bool(int connection, std::size_t index)>;

struct OpenLoopResult {
  // Per request, in schedule order: completion minus due time, so waiting
  // for a free connection counts; and send minus due time (how late the
  // generator handed it to a connection).
  std::vector<double> latency_s;
  std::vector<double> late_s;
  std::vector<std::uint8_t> ok;  // bytes: connection threads write them
  std::size_t failed = 0;
  double elapsed_s = 0.0;
};

// Open loop: one generator thread releases each request at its due time to
// whichever of `connections` connection threads is free, waiting for one
// when all are busy. Returns after every request has completed.
OpenLoopResult run_open_loop(const std::vector<Arrival>& schedule,
                             int connections, const SendFn& send);

// Closed loop: `connections` threads each send back to back until
// `seconds` have passed. Request indices count up across connections.
struct ClosedLoopResult {
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::vector<std::size_t> completed_indices;
  double elapsed_s = 0.0;
};
ClosedLoopResult run_closed_loop(int connections, double seconds,
                                 const SendFn& send);

// Highest k in [0, k_max] for which `ok(k)` holds, for an `ok` that holds
// up to some k and fails above it; -1 when ok(0) fails (or k_max < 0).
// Evaluates ok about log2(k_max + 2) times.
int bisect_highest(int k_max, const std::function<bool(int)>& ok);

}  // namespace hotspot::e2e
