// Deterministic fault injection for crash-safety and chaos tests.
//
// Production code sprinkles named failure points through its I/O and scan
// paths (`fault_should_fail(FaultPoint::kCheckpointWrite)` before each
// write, and so on). In normal operation every probe returns false at the
// cost of one relaxed atomic load. Tests arm a point in one of two modes:
//
//   * one-shot (fault_arm): the N-th probe of that point reports failure,
//     then the point disarms itself. A loop over countdown values simulates
//     a crash at every interruption point of a multi-step operation —
//     exactly what the checkpoint atomicity and scan kill-and-resume sweeps
//     need. Because the fault fires once, it models a *transient* error
//     (ENOSPC that clears, a cosmic-ray compute fault): a retry succeeds.
//
//   * sticky (fault_arm_sticky): every probe from the N-th onward fails
//     until the point is cleared. This models a *persistent* fault (bad
//     window geometry, dead allocator) and is what drives retry exhaustion
//     into quarantine in the scan pipeline.
//
// Stall points (fault_maybe_stall) additionally sleep for a configurable
// duration when they fire, so deadline/watchdog code can be tested against
// a wedged window without wall-clock-scale test times.
//
// The harness also bundles file-corruption helpers (truncation, single-bit
// flips) so integrity tests can damage a checkpoint or journal the way torn
// writes and bit rot do, without hand-rolling file surgery in every test.
//
// State is global and thread-safe; tests must call fault_clear_all() (or use
// the ScopedFaultInjection RAII guard) so armed faults never leak across
// test cases.
#pragma once

#include <cstdint>
#include <string>

namespace hotspot::util {

// Failure points instrumented in production code. Keep in sync with
// fault_point_name().
enum class FaultPoint {
  kCheckpointWrite = 0,    // any payload write to the checkpoint temp file
  kCheckpointFlush = 1,    // the flush/fsync before publishing
  kCheckpointRename = 2,   // the atomic rename that publishes the file
  kJournalWrite = 3,       // any byte write to the scan journal or a
                           // FlightRecorder::dump file
  kJournalFlush = 4,       // the journal's per-record flush/fsync (and a
                           // dump's flush before publishing)
  kJournalRename = 5,      // the atomic rename publishing a
                           // FlightRecorder::dump file
  kScanRasterCompute = 6,  // window rasterization (compute fault)
  kScanRasterStall = 7,    // window rasterization (stall; sleeps on fire)
  kScanAlloc = 8,          // allocation in the scan path (dedup insert,
                           // batch assembly)
  kScanPredictCompute = 9,   // batch classification (compute fault)
  kScanPredictStall = 10,    // batch classification (stall; sleeps on fire)
  kScanAbort = 11,           // simulated process death in the scan consumer
};
inline constexpr int kFaultPointCount = 12;

const char* fault_point_name(FaultPoint point);

// Arms `point` so that its `countdown`-th probe (1-based) fails. Until then
// probes pass; after firing the point disarms itself, so at most one failure
// per arm call. countdown must be >= 1.
void fault_arm(FaultPoint point, int countdown);

// Arms `point` so that every probe from the `after`-th (1-based) onward
// fails until the point is cleared — a persistent fault. after must be >= 1.
void fault_arm_sticky(FaultPoint point, int after = 1);

// Disarms one point / every point. fault_clear_all also resets the stall
// duration to zero.
void fault_clear(FaultPoint point);
void fault_clear_all();

// Probe called by instrumented code. Returns true exactly when an armed
// one-shot countdown reaches zero or a sticky arm is in effect; always
// false for unarmed points.
bool fault_should_fail(FaultPoint point);

// Stall duration (milliseconds) that firing stall points sleep for.
void fault_set_stall_ms(int ms);
int fault_stall_ms();

// Probe for stall points: when the probe fires, sleeps fault_stall_ms()
// and returns true. Instrumented code calls this where a real stall (page
// cache thrash, pathological geometry) would wedge the pipeline.
bool fault_maybe_stall(FaultPoint point);

// Number of times `point` has fired since the last clear — lets tests assert
// that the simulated crash actually happened.
int fault_trip_count(FaultPoint point);

// Total probes observed on `point` since the last clear (fired or not).
// Tests use this to discover how many interruption points an operation has,
// then sweep countdown = 1..N.
int fault_probe_count(FaultPoint point);

// RAII guard: clears all fault state on construction and destruction so a
// test cannot leak armed faults into its neighbours.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection() { fault_clear_all(); }
  ~ScopedFaultInjection() { fault_clear_all(); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

// --- File corruption helpers -------------------------------------------

// Size of `path` in bytes, or -1 if it cannot be stat'ed.
std::int64_t file_size_of(const std::string& path);

// Truncates `path` to `new_size` bytes (must be <= current size). Returns
// false if the file is missing or the OS call fails.
bool corrupt_truncate(const std::string& path, std::int64_t new_size);

// Flips bit `bit` (0-7) of byte `byte_offset` in place. Returns false if the
// offset is out of range or I/O fails.
bool corrupt_flip_bit(const std::string& path, std::int64_t byte_offset,
                      int bit);

}  // namespace hotspot::util
