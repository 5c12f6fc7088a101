// Raster-keyed verdict dedup for full-chip scans (DESIGN.md §11, §13).
//
// Tiled chips repeat their window rasters heavily; two windows with the
// same binary raster must get the same verdict from a deterministic
// detector, so the scan only pays inference once per distinct raster. The
// cache keys on the raster's bytes; the scan's keys are the binary raster
// bit-packed LSB-first (layout::rasterize_bits), (grid² + 7) / 8 bytes —
// 128 B at 32 px. A 64-bit hash over 8-byte words picks the bucket and a
// full byte comparison confirms the match, so a hash collision can never
// replay the wrong verdict — the bit-identical guarantee survives.
//
// Memory is bounded: an entry cap and a payload-byte cap (either 0 =
// unlimited) evict the least-recently-used raster to make room, so a
// full-chip scan over mostly-unique geometry holds a fixed working set
// instead of growing until OOM. Eviction only costs extra inference when an
// evicted raster reappears (it re-enters under a fresh entry id); verdicts
// are never wrong, and the eviction order is a pure function of the access
// sequence, so journal resume replays it exactly. Evictions are counted
// locally (evictions()) and on the scan.dedup.evictions counter; the live
// payload size is mirrored onto the scan.dedup.bytes gauge. Payload bytes
// are key bytes: a packed scan key costs one byte per eight pixels.
//
// Each entry can also hold a second key, the geometry memo: the rect list
// of a window whose raster is the entry's key, in window-local coordinates
// and materialize order. A window's packed raster is a pure function of
// that ordered list, so a window whose rect list equals an entry's
// geometry has that entry's raster, and the scan serves it without
// rasterizing or hashing pixels. A memo hit refreshes recency exactly as
// the raster find() it stands for would, and the geometry is created and
// evicted with its entry; its bytes count toward neither cap. Eviction
// therefore stays a pure function of the raster access sequence, which a
// journal resume — whose keys carry no geometry — replays exactly.
//
// The cache is single-writer (the scan producer); it is not thread-safe.
// find() refreshes recency, so it is not const.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "layout/geometry.h"

namespace hotspot::scan {

// A raster as the cache keys it; the cache treats a key as opaque bytes.
using RasterKey = std::vector<std::uint8_t>;

// A window's clipped geometry as the memo keys it: its rects in
// window-local coordinates, in ClipWindowStream::materialize order. Order
// matters: overlapping rects add into shared pixels in this order.
using WindowGeometry = std::span<const layout::Rect>;

// A 64-bit hash of the key read in 8-byte words (the last one zero-padded)
// and then its length. Any single-bit change changes the hash. The hash is
// never persisted, so it may change between builds.
std::uint64_t hash_raster(const RasterKey& pixels);

// The same mix over each rect's x0, y0, x1, y1 and then the rect count.
std::uint64_t hash_geometry(WindowGeometry rects);

class RasterDedupCache {
 public:
  // `max_entries` bounds the number of distinct rasters remembered and
  // `max_bytes` the total bytes of their keys; 0 = unlimited. When a cap
  // would be exceeded the least-recently-used entries are evicted to make
  // room.
  explicit RasterDedupCache(std::size_t max_entries = 0,
                            std::size_t max_bytes = 0)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  // Entry id for `pixels`, or -1 when the raster is not cached. A hit
  // refreshes the entry's recency.
  std::int64_t find(std::uint64_t hash, const RasterKey& pixels);

  // Remembers `pixels` under `entry` (an id the caller allocates, e.g. a
  // slot in its verdict table), evicting LRU entries as needed. Re-inserting
  // an already-cached raster overwrites its entry id and refreshes recency
  // without growing size() or bytes() — the payload is identical, so the
  // accounting must not change. Returns false only when `pixels` alone
  // exceeds a cap and cannot be cached (scan results stay exact, the hit
  // rate just degrades). Probes the kScanAlloc fault point: an armed fault
  // throws std::bad_alloc before any mutation, the way a real allocation
  // failure would.
  bool insert(std::uint64_t hash, RasterKey pixels, std::int64_t entry);

  // Entry id of the cached raster whose geometry equals `rects` (hash from
  // hash_geometry), or -1. A hit refreshes recency as find() does; a full
  // compare confirms it.
  std::int64_t find_geometry(std::uint64_t hash, WindowGeometry rects);

  // Records `rects` as the geometry of the entry cached under `pixels`.
  // Returns false, recording nothing, when `pixels` is not cached or its
  // entry already holds a geometry: an entry holds one. Leaves recency,
  // size(), bytes() and evictions() as they are and probes no fault point.
  bool attach_geometry(std::uint64_t hash, const RasterKey& pixels,
                       std::uint64_t geometry_hash, WindowGeometry rects);

  std::size_t size() const { return lru_.size(); }
  std::size_t bytes() const { return bytes_; }
  std::uint64_t evictions() const { return evictions_; }
  std::size_t max_entries() const { return max_entries_; }
  std::size_t max_bytes() const { return max_bytes_; }

 private:
  struct Keyed {
    std::uint64_t hash = 0;
    RasterKey pixels;
    std::int64_t entry = 0;
    std::uint64_t geometry_hash = 0;
    std::optional<std::vector<layout::Rect>> geometry;
  };
  using LruList = std::list<Keyed>;
  using Buckets =
      std::unordered_map<std::uint64_t, std::vector<LruList::iterator>>;

  LruList::iterator locate(std::uint64_t hash, const RasterKey& pixels);
  void evict_lru();
  // Mirrors bytes_ onto the scan.dedup.bytes gauge after every mutation.
  void publish_bytes_gauge() const;

  std::size_t max_entries_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
  // Front = most recently used; eviction pops the back.
  LruList lru_;
  // Bucketed by hash; each bucket holds full-key nodes so collisions are
  // resolved by comparison, never assumed away.
  Buckets buckets_;
  // The nodes that hold a geometry, bucketed by its hash the same way.
  Buckets geometry_buckets_;
};

}  // namespace hotspot::scan
