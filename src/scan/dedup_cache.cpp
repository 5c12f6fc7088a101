#include "scan/dedup_cache.h"

#include <cstring>
#include <new>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/fault_injection.h"

namespace hotspot::scan {

std::uint64_t hash_raster(const RasterKey& pixels) {
  // Every step below is a bijection of the state for a fixed input word,
  // and xor-ing in a word is injective in that word, so two keys of one
  // length that differ in any bit hash differently. The length goes in
  // last: "n zero bytes" and "m zero bytes" differ there even though the
  // zero-padded words would not.
  constexpr std::uint64_t kMultiplier = 0x9e3779b97f4a7c15ULL;  // odd
  const auto mix = [](std::uint64_t state, std::uint64_t word) {
    state = (state ^ word) * kMultiplier;
    return state ^ (state >> 29);
  };
  std::uint64_t hash = 0x243f6a8885a308d3ULL;
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
  hash = mix(hash, static_cast<std::uint64_t>(size));
  // A final avalanche so the bucket index (hash modulo the table size)
  // depends on every word.
  hash ^= hash >> 32;
  hash *= 0xd6e8feb86659fd93ULL;
  return hash ^ (hash >> 32);
}

std::int64_t RasterDedupCache::find(std::uint64_t hash,
                                    const RasterKey& pixels) {
  const auto bucket = buckets_.find(hash);
  if (bucket == buckets_.end()) {
    return -1;
  }
  for (const LruList::iterator node : bucket->second) {
    if (node->pixels == pixels) {
      lru_.splice(lru_.begin(), lru_, node);  // refresh recency
      return node->entry;
    }
  }
  return -1;
}

void RasterDedupCache::evict_lru() {
  const LruList::iterator victim = std::prev(lru_.end());
  std::vector<LruList::iterator>& bucket = buckets_[victim->hash];
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i] == victim) {
      bucket[i] = bucket.back();
      bucket.pop_back();
      break;
    }
  }
  if (bucket.empty()) {
    buckets_.erase(victim->hash);
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
  const auto bucket = buckets_.find(hash);
  if (bucket != buckets_.end()) {
    for (const LruList::iterator node : bucket->second) {
      if (node->pixels == pixels) {
        // Re-inserting a cached raster must not grow the LRU list or the
        // byte counter: pushing a duplicate node used to double-count
        // bytes_ (and leave a stale twin that corrupted the count again on
        // eviction). Overwrite in place — the payload is identical, so the
        // accounting is unchanged — and refresh recency like a hit.
        node->entry = entry;
        lru_.splice(lru_.begin(), lru_, node);
        publish_bytes_gauge();
        return true;
      }
    }
  }
  const std::size_t incoming = pixels.size();
  if (max_bytes_ != 0 && incoming > max_bytes_) {
    return false;  // cannot fit even an empty cache; classified, not cached
  }
  while ((max_entries_ != 0 && lru_.size() >= max_entries_) ||
         (max_bytes_ != 0 && bytes_ + incoming > max_bytes_)) {
    evict_lru();
  }
  lru_.push_front(Keyed{hash, std::move(pixels), entry});
  buckets_[hash].push_back(lru_.begin());
  bytes_ += incoming;
  publish_bytes_gauge();
  return true;
}

}  // namespace hotspot::scan
