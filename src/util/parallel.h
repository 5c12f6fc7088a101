// Persistent thread pool with a deterministic parallel_for.
//
// Partitioning is a pure function of (range, grain) — never of the thread
// count — so a loop body that writes disjoint outputs per index (or reduces
// entirely within one index) produces bit-identical results at any thread
// count. Chunks are handed to threads dynamically for load balance; only the
// *assignment* varies between runs, never the chunk boundaries or the
// iteration order inside a chunk.
//
// The pool is process-global and lazy: no threads are spawned until the
// first parallel_for that could use more than one, so single-threaded
// configurations pay nothing. The worker count defaults to the hardware
// concurrency and can be overridden with the HOTSPOT_NUM_THREADS environment
// variable or set_parallel_threads() at runtime (benches sweep it).
//
// Nested parallel_for calls (a loop body calling a parallel kernel) execute
// the inner loop inline on the calling worker, so composition is safe and
// still deterministic.
#pragma once

#include <cstdint>
#include <functional>

namespace hotspot::util {

// Loop body: processes the half-open index range [chunk_begin, chunk_end).
using ParallelChunkFn = std::function<void(std::int64_t, std::int64_t)>;

// Number of threads the pool is configured to use (>= 1).
int parallel_threads();

// Sanity cap on any configured thread count. Far above any real machine
// this code targets, but low enough that an overflowed or fat-fingered
// HOTSPOT_NUM_THREADS can never ask the pool to spawn millions of workers.
inline constexpr int kMaxThreadCount = 1024;

// Strict parse of a thread count (the HOTSPOT_NUM_THREADS format, shared
// by the serve CLI's --threads flag): util::parse_integer's grammar over
// [1, kMaxThreadCount] — no surrounding space, no '+', no trailing junk.
// Returns false — without writing *out — on garbage, overflow (range-
// checked, never truncated), zero/negative values, or anything over the
// cap. `out` may be null to validate only.
bool parse_thread_count_strict(const char* text, int* out);

// Resolves HOTSPOT_NUM_THREADS the way the pool's first use does: unset or
// empty falls back to the hardware concurrency; anything else must satisfy
// parse_thread_count_strict or the process prints the offending value and
// exits 2, matching the other strict env validations (HOTSPOT_SIMD,
// HOTSPOT_BENCH_SCALE). Exposed so tests can probe the exit path without
// constructing a pool.
int resolve_threads_from_env();

// Reconfigures the pool to `threads` (clamped to >= 1). Must not be called
// from inside a parallel region. Overrides HOTSPOT_NUM_THREADS.
void set_parallel_threads(int threads);

// Splits [begin, end) into chunks of at least `grain` indices and runs
// `fn(chunk_begin, chunk_end)` over every chunk, using the calling thread
// plus the pool workers. Runs inline when the range is small, the pool has
// one thread, or the caller is already inside a parallel region. Exceptions
// thrown by `fn` are rethrown (first one wins) on the calling thread after
// the loop completes.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const ParallelChunkFn& fn);

}  // namespace hotspot::util
