#include "scan/dedup_cache.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/fault_injection.h"

namespace hotspot::scan {

namespace {

// Every step below is a bijection of the state for a fixed input word, and
// xor-ing in a word is injective in that word, so two inputs of one length
// that differ in any bit hash differently.
constexpr std::uint64_t kMultiplier = 0x9e3779b97f4a7c15ULL;  // odd
constexpr std::uint64_t kSeed = 0x243f6a8885a308d3ULL;

std::uint64_t mix(std::uint64_t state, std::uint64_t word) {
  state = (state ^ word) * kMultiplier;
  return state ^ (state >> 29);
}

// The length goes in last, then a final avalanche so the bucket index (hash
// modulo the table size) depends on every word.
std::uint64_t finish(std::uint64_t state, std::size_t length) {
  std::uint64_t hash = mix(state, static_cast<std::uint64_t>(length));
  hash ^= hash >> 32;
  hash *= 0xd6e8feb86659fd93ULL;
  return hash ^ (hash >> 32);
}

// Removes `node` from its bucket under `hash`, dropping an emptied bucket.
template <typename Iterator>
void erase_from_bucket(
    std::unordered_map<std::uint64_t, std::vector<Iterator>>& buckets,
    std::uint64_t hash, Iterator node) {
  const auto bucket = buckets.find(hash);
  std::vector<Iterator>& nodes = bucket->second;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] == node) {
      nodes[i] = nodes.back();
      nodes.pop_back();
      break;
    }
  }
  if (nodes.empty()) {
    buckets.erase(bucket);
  }
}

}  // namespace

std::uint64_t hash_raster(const RasterKey& pixels) {
  // The key is read in 8-byte words, the last one zero-padded; "n zero
  // bytes" and "m zero bytes" then differ only in the length.
  std::uint64_t hash = kSeed;
  const std::size_t size = pixels.size();
  const std::size_t whole = size - size % 8;
  for (std::size_t at = 0; at < whole; at += 8) {
    hash = mix(hash, util::load_le<std::uint64_t>(pixels.data() + at));
  }
  if (whole < size) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, pixels.data() + whole, size - whole);
    hash = mix(hash, tail);
  }
  return finish(hash, size);
}

std::uint64_t hash_geometry(WindowGeometry rects) {
  std::uint64_t hash = kSeed;
  for (const layout::Rect& rect : rects) {
    hash = mix(hash, static_cast<std::uint64_t>(rect.x0));
    hash = mix(hash, static_cast<std::uint64_t>(rect.y0));
    hash = mix(hash, static_cast<std::uint64_t>(rect.x1));
    hash = mix(hash, static_cast<std::uint64_t>(rect.y1));
  }
  return finish(hash, rects.size());
}

RasterDedupCache::LruList::iterator RasterDedupCache::locate(
    std::uint64_t hash, const RasterKey& pixels) {
  const auto bucket = buckets_.find(hash);
  if (bucket != buckets_.end()) {
    for (const LruList::iterator node : bucket->second) {
      if (node->pixels == pixels) {
        return node;
      }
    }
  }
  return lru_.end();
}

std::int64_t RasterDedupCache::find(std::uint64_t hash,
                                    const RasterKey& pixels) {
  const LruList::iterator node = locate(hash, pixels);
  if (node == lru_.end()) {
    return -1;
  }
  lru_.splice(lru_.begin(), lru_, node);  // refresh recency
  return node->entry;
}

std::int64_t RasterDedupCache::find_geometry(std::uint64_t hash,
                                             WindowGeometry rects) {
  const auto bucket = geometry_buckets_.find(hash);
  if (bucket == geometry_buckets_.end()) {
    return -1;
  }
  for (const LruList::iterator node : bucket->second) {
    if (std::equal(node->geometry->begin(), node->geometry->end(),
                   rects.begin(), rects.end())) {
      lru_.splice(lru_.begin(), lru_, node);  // refresh recency
      return node->entry;
    }
  }
  return -1;
}

bool RasterDedupCache::attach_geometry(std::uint64_t hash,
                                       const RasterKey& pixels,
                                       std::uint64_t geometry_hash,
                                       WindowGeometry rects) {
  const LruList::iterator node = locate(hash, pixels);
  if (node == lru_.end() || node->geometry) {
    return false;
  }
  // Copy and index first, so a failed allocation leaves the node without
  // a geometry.
  std::vector<layout::Rect> copy(rects.begin(), rects.end());
  geometry_buckets_[geometry_hash].push_back(node);
  node->geometry_hash = geometry_hash;
  node->geometry = std::move(copy);
  return true;
}

void RasterDedupCache::evict_lru() {
  const LruList::iterator victim = std::prev(lru_.end());
  erase_from_bucket(buckets_, victim->hash, victim);
  if (victim->geometry) {
    erase_from_bucket(geometry_buckets_, victim->geometry_hash, victim);
  }
  bytes_ -= victim->pixels.size();
  lru_.erase(victim);
  ++evictions_;
  static obs::Counter& evictions_counter =
      obs::MetricsRegistry::global().counter("scan.dedup.evictions");
  evictions_counter.increment();
  publish_bytes_gauge();
}

void RasterDedupCache::publish_bytes_gauge() const {
  // The cache is single-writer, so a plain set is exact. A second live
  // cache instance would clobber this gauge; scans run one cache at a time.
  static obs::Gauge& bytes_gauge =
      obs::MetricsRegistry::global().gauge("scan.dedup.bytes");
  bytes_gauge.set(static_cast<double>(bytes_));
}

bool RasterDedupCache::insert(std::uint64_t hash, RasterKey pixels,
                              std::int64_t entry) {
  if (util::fault_should_fail(util::FaultPoint::kScanAlloc)) {
    throw std::bad_alloc();
  }
  const LruList::iterator cached = locate(hash, pixels);
  if (cached != lru_.end()) {
    // Re-inserting a cached raster must not grow the LRU list or the byte
    // counter: pushing a duplicate node used to double-count bytes_ (and
    // leave a stale twin that corrupted the count again on eviction).
    // Overwrite in place — the payload is identical, so the accounting is
    // unchanged — and refresh recency like a hit.
    cached->entry = entry;
    lru_.splice(lru_.begin(), lru_, cached);
    publish_bytes_gauge();
    return true;
  }
  const std::size_t incoming = pixels.size();
  if (max_bytes_ != 0 && incoming > max_bytes_) {
    return false;  // cannot fit even an empty cache; classified, not cached
  }
  while ((max_entries_ != 0 && lru_.size() >= max_entries_) ||
         (max_bytes_ != 0 && bytes_ + incoming > max_bytes_)) {
    evict_lru();
  }
  lru_.push_front(Keyed{hash, std::move(pixels), entry, 0, std::nullopt});
  buckets_[hash].push_back(lru_.begin());
  bytes_ += incoming;
  publish_bytes_gauge();
  return true;
}

}  // namespace hotspot::scan
