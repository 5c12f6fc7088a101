#include "scan/dedup_cache.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "layout/geometry.h"
#include "obs/metrics.h"

namespace hotspot::scan {
namespace {

RasterKey make_key(std::initializer_list<int> bits) {
  RasterKey key;
  for (const int bit : bits) {
    key.push_back(static_cast<std::uint8_t>(bit));
  }
  return key;
}

TEST(RasterDedupCache, FindAfterInsert) {
  RasterDedupCache cache;
  const RasterKey a = make_key({1, 0, 1, 1});
  const RasterKey b = make_key({0, 0, 1, 1});
  EXPECT_EQ(cache.find(hash_raster(a), a), -1);
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 7));
  EXPECT_TRUE(cache.insert(hash_raster(b), b, 9));
  EXPECT_EQ(cache.find(hash_raster(a), a), 7);
  EXPECT_EQ(cache.find(hash_raster(b), b), 9);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(RasterDedupCache, CollisionResolvedByFullComparison) {
  // Two different keys forced into the same bucket must still resolve to
  // their own entries — the verdict replay can never trust the hash alone.
  RasterDedupCache cache;
  const RasterKey a = make_key({1, 1, 0, 0});
  const RasterKey b = make_key({0, 0, 1, 1});
  const std::uint64_t shared_hash = 42;
  EXPECT_TRUE(cache.insert(shared_hash, a, 1));
  EXPECT_TRUE(cache.insert(shared_hash, b, 2));
  EXPECT_EQ(cache.find(shared_hash, a), 1);
  EXPECT_EQ(cache.find(shared_hash, b), 2);
  EXPECT_EQ(cache.find(shared_hash, make_key({1, 0, 1, 0})), -1);
}

TEST(RasterDedupCache, EntryCapEvictsLeastRecentlyUsed) {
  RasterDedupCache cache(/*max_entries=*/2);
  const RasterKey a = make_key({1});
  const RasterKey b = make_key({0});
  const RasterKey c = make_key({1, 1});
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 0));
  EXPECT_TRUE(cache.insert(hash_raster(b), b, 1));
  // Full: the third insert evicts `a` (the least recently used) instead of
  // dropping the new raster.
  EXPECT_TRUE(cache.insert(hash_raster(c), c, 2));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find(hash_raster(a), a), -1);
  EXPECT_EQ(cache.find(hash_raster(b), b), 1);
  EXPECT_EQ(cache.find(hash_raster(c), c), 2);
}

TEST(RasterDedupCache, FindRefreshesRecency) {
  RasterDedupCache cache(/*max_entries=*/2);
  const RasterKey a = make_key({1});
  const RasterKey b = make_key({0});
  const RasterKey c = make_key({1, 1});
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 0));
  EXPECT_TRUE(cache.insert(hash_raster(b), b, 1));
  // Touch `a`: now `b` is the LRU victim.
  EXPECT_EQ(cache.find(hash_raster(a), a), 0);
  EXPECT_TRUE(cache.insert(hash_raster(c), c, 2));
  EXPECT_EQ(cache.find(hash_raster(a), a), 0);
  EXPECT_EQ(cache.find(hash_raster(b), b), -1);
}

TEST(RasterDedupCache, ByteCapEvictsUntilPayloadFits) {
  RasterDedupCache cache(/*max_entries=*/0, /*max_bytes=*/8);
  const RasterKey a(4, 1);
  const RasterKey b(4, 0);
  RasterKey c(6, 1);
  c[0] = 0;  // distinct from a
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 0));
  EXPECT_TRUE(cache.insert(hash_raster(b), b, 1));
  EXPECT_EQ(cache.bytes(), 8u);
  // 6 more bytes need both 4-byte residents evicted.
  EXPECT_TRUE(cache.insert(hash_raster(c), c, 2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 6u);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.find(hash_raster(c), c), 2);
}

TEST(RasterDedupCache, OversizedRasterIsRejectedWithoutEvicting) {
  RasterDedupCache cache(/*max_entries=*/0, /*max_bytes=*/4);
  const RasterKey small = make_key({1, 0});
  const RasterKey huge(8, 1);
  EXPECT_TRUE(cache.insert(hash_raster(small), small, 0));
  // Larger than the whole cap: dropped, and the resident entry survives.
  EXPECT_FALSE(cache.insert(hash_raster(huge), huge, 1));
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.find(hash_raster(small), small), 0);
  EXPECT_EQ(cache.find(hash_raster(huge), huge), -1);
}

TEST(RasterDedupCache, UnboundedByDefault) {
  RasterDedupCache cache;
  for (int i = 0; i < 256; ++i) {
    RasterKey key = make_key({i & 1, (i >> 1) & 1});
    key.push_back(static_cast<std::uint8_t>(i));
    EXPECT_TRUE(cache.insert(hash_raster(key), key, i));
  }
  EXPECT_EQ(cache.size(), 256u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(RasterDedupCache, ReinsertDoesNotDoubleCount) {
  // Re-inserting a raster that is already resident used to push a duplicate
  // LRU node and count its bytes twice, shrinking the effective byte cap
  // and eventually corrupting bytes() on eviction of the twin.
  RasterDedupCache cache(/*max_entries=*/0, /*max_bytes=*/16);
  const RasterKey a(8, 1);
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 0));
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 5));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 8u);
  EXPECT_EQ(cache.evictions(), 0u);
  // The overwrite updated the entry id in place.
  EXPECT_EQ(cache.find(hash_raster(a), a), 5);
  // 8 residual + 8 incoming fits the 16-byte cap exactly: no eviction, which
  // the double-counted 16-resident bytes would have forced.
  const RasterKey b(8, 0);
  EXPECT_TRUE(cache.insert(hash_raster(b), b, 1));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 16u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(RasterDedupCache, ReinsertRefreshesRecency) {
  RasterDedupCache cache(/*max_entries=*/2);
  const RasterKey a = make_key({1});
  const RasterKey b = make_key({0});
  const RasterKey c = make_key({1, 1});
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 0));
  EXPECT_TRUE(cache.insert(hash_raster(b), b, 1));
  // Overwrite `a`: like a hit, it must become most-recent so `b` is evicted.
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 3));
  EXPECT_TRUE(cache.insert(hash_raster(c), c, 2));
  EXPECT_EQ(cache.find(hash_raster(a), a), 3);
  EXPECT_EQ(cache.find(hash_raster(b), b), -1);
  EXPECT_EQ(cache.find(hash_raster(c), c), 2);
}

TEST(RasterDedupCache, ByteAccountingSurvivesInsertOverwriteEvictReplay) {
  // Replay a mixed insert/overwrite/evict sequence and assert after every
  // step that bytes() — and the scan.dedup.bytes gauge mirroring it —
  // equals the sum of the live entries' payloads.
  RasterDedupCache cache(/*max_entries=*/3, /*max_bytes=*/32);
  const obs::Gauge& bytes_gauge =
      obs::MetricsRegistry::global().gauge("scan.dedup.bytes");
  std::vector<RasterKey> keys;
  for (int i = 0; i < 6; ++i) {
    RasterKey key(static_cast<std::size_t>(4 + i * 2), 1);
    key[0] = static_cast<std::uint8_t>(i);  // distinct payloads
    keys.push_back(key);
  }
  // insert 0,1,2 / overwrite 1 / insert 3 (evicts) / overwrite 3 /
  // insert 4,5 (byte-cap evictions) / overwrite 5.
  const int replay[] = {0, 1, 2, 1, 3, 3, 4, 5, 5};
  for (const int step : replay) {
    ASSERT_TRUE(cache.insert(hash_raster(keys[static_cast<std::size_t>(step)]),
                             keys[static_cast<std::size_t>(step)], step));
    std::size_t live_bytes = 0;
    std::size_t live_entries = 0;
    for (const RasterKey& key : keys) {
      if (cache.find(hash_raster(key), key) != -1) {
        live_bytes += key.size();
        ++live_entries;
      }
    }
    ASSERT_EQ(cache.bytes(), live_bytes) << "after step " << step;
    ASSERT_EQ(cache.size(), live_entries) << "after step " << step;
    ASSERT_LE(cache.bytes(), cache.max_bytes());
    ASSERT_LE(cache.size(), cache.max_entries());
    ASSERT_EQ(bytes_gauge.value(), static_cast<double>(live_bytes));
  }
  EXPECT_GT(cache.evictions(), 0u);
}

// A window's local rect list for the geometry memo: `count` unit squares
// along a row starting at `x`.
std::vector<layout::Rect> make_geometry(std::int64_t x, int count) {
  std::vector<layout::Rect> rects;
  for (int i = 0; i < count; ++i) {
    rects.push_back(layout::Rect{x + 2 * i, 0, x + 2 * i + 1, 1});
  }
  return rects;
}

TEST(RasterDedupCache, GeometryHitRefreshesRecencyLikeFind) {
  RasterDedupCache cache(/*max_entries=*/2);
  const RasterKey a = make_key({1});
  const RasterKey b = make_key({0});
  const RasterKey c = make_key({1, 1});
  const std::vector<layout::Rect> ga = make_geometry(0, 3);
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 0));
  EXPECT_TRUE(cache.attach_geometry(hash_raster(a), a, hash_geometry(ga), ga));
  EXPECT_TRUE(cache.insert(hash_raster(b), b, 1));
  // A geometry hit on `a` makes it most recent, so `b` is the victim.
  EXPECT_EQ(cache.find_geometry(hash_geometry(ga), ga), 0);
  EXPECT_TRUE(cache.insert(hash_raster(c), c, 2));
  EXPECT_EQ(cache.find(hash_raster(b), b), -1);
  EXPECT_EQ(cache.find(hash_raster(a), a), 0);
  EXPECT_EQ(cache.find(hash_raster(c), c), 2);
}

TEST(RasterDedupCache, AttachingGeometryLeavesRecency) {
  RasterDedupCache cache(/*max_entries=*/2);
  const RasterKey a = make_key({1});
  const RasterKey b = make_key({0});
  const RasterKey c = make_key({1, 1});
  const std::vector<layout::Rect> ga = make_geometry(0, 3);
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 0));
  EXPECT_TRUE(cache.insert(hash_raster(b), b, 1));
  // `a` is the least recent and stays so after the attach: `c` evicts it.
  EXPECT_TRUE(cache.attach_geometry(hash_raster(a), a, hash_geometry(ga), ga));
  EXPECT_TRUE(cache.insert(hash_raster(c), c, 2));
  EXPECT_EQ(cache.find_geometry(hash_geometry(ga), ga), -1);
  EXPECT_EQ(cache.find(hash_raster(a), a), -1);
  EXPECT_EQ(cache.find(hash_raster(b), b), 1);
}

TEST(RasterDedupCache, GeometryMissesAreConfirmedByFullCompare) {
  RasterDedupCache cache;
  const RasterKey a = make_key({1, 0});
  const std::vector<layout::Rect> ga = make_geometry(0, 2);
  std::vector<layout::Rect> reordered = ga;
  std::swap(reordered[0], reordered[1]);
  const std::uint64_t shared_hash = 42;
  EXPECT_EQ(cache.find_geometry(shared_hash, ga), -1);
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 4));
  EXPECT_TRUE(cache.attach_geometry(hash_raster(a), a, shared_hash, ga));
  EXPECT_EQ(cache.find_geometry(shared_hash, ga), 4);
  // Same bucket, other order or length: no hit.
  EXPECT_EQ(cache.find_geometry(shared_hash, reordered), -1);
  EXPECT_EQ(cache.find_geometry(shared_hash, make_geometry(0, 1)), -1);
  EXPECT_NE(hash_geometry(ga), hash_geometry(reordered));
  // An empty window is a geometry like any other.
  const RasterKey blank = make_key({0, 0});
  const std::vector<layout::Rect> none;
  EXPECT_TRUE(cache.insert(hash_raster(blank), blank, 5));
  EXPECT_TRUE(
      cache.attach_geometry(hash_raster(blank), blank, hash_geometry(none),
                            none));
  EXPECT_EQ(cache.find_geometry(hash_geometry(none), none), 5);
  // Nothing to attach to: the raster is not cached.
  EXPECT_FALSE(cache.attach_geometry(hash_raster(make_key({1, 1})),
                                     make_key({1, 1}), hash_geometry(ga), ga));
}

TEST(RasterDedupCache, EvictionDropsTheGeometry) {
  RasterDedupCache cache(/*max_entries=*/1);
  const RasterKey a = make_key({1});
  const RasterKey b = make_key({0});
  const std::vector<layout::Rect> ga = make_geometry(0, 2);
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 0));
  EXPECT_TRUE(cache.attach_geometry(hash_raster(a), a, hash_geometry(ga), ga));
  EXPECT_TRUE(cache.insert(hash_raster(b), b, 1));  // evicts `a`
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find_geometry(hash_geometry(ga), ga), -1);
  // Back under a fresh id, `a` starts with no geometry.
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 2));
  EXPECT_EQ(cache.find_geometry(hash_geometry(ga), ga), -1);
  EXPECT_TRUE(cache.attach_geometry(hash_raster(a), a, hash_geometry(ga), ga));
  EXPECT_EQ(cache.find_geometry(hash_geometry(ga), ga), 2);
}

TEST(RasterDedupCache, BytesCountKeyBytesOnly) {
  // Geometry bytes count toward neither cap, so the byte cap evicts
  // exactly as it would with no geometry attached.
  RasterDedupCache cache(/*max_entries=*/0, /*max_bytes=*/8);
  const obs::Gauge& bytes_gauge =
      obs::MetricsRegistry::global().gauge("scan.dedup.bytes");
  const RasterKey a(4, 1);
  const RasterKey b(4, 0);
  const std::vector<layout::Rect> ga = make_geometry(0, 64);
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 0));
  EXPECT_TRUE(cache.attach_geometry(hash_raster(a), a, hash_geometry(ga), ga));
  EXPECT_EQ(cache.bytes(), 4u);
  EXPECT_EQ(bytes_gauge.value(), 4.0);
  EXPECT_TRUE(cache.insert(hash_raster(b), b, 1));
  EXPECT_EQ(cache.bytes(), 8u);
  EXPECT_EQ(bytes_gauge.value(), 8.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.find_geometry(hash_geometry(ga), ga), 0);
}

TEST(RasterDedupCache, AnEntryHoldsOneGeometry) {
  RasterDedupCache cache;
  const RasterKey a = make_key({1, 1});
  const std::vector<layout::Rect> first = make_geometry(0, 2);
  const std::vector<layout::Rect> second = make_geometry(10, 2);
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 0));
  EXPECT_TRUE(
      cache.attach_geometry(hash_raster(a), a, hash_geometry(first), first));
  // A second geometry with the same raster is refused; the first stays.
  EXPECT_FALSE(
      cache.attach_geometry(hash_raster(a), a, hash_geometry(second), second));
  EXPECT_EQ(cache.find_geometry(hash_geometry(first), first), 0);
  EXPECT_EQ(cache.find_geometry(hash_geometry(second), second), -1);
  // Re-inserting the raster keeps its geometry with the new entry id.
  EXPECT_TRUE(cache.insert(hash_raster(a), a, 7));
  EXPECT_EQ(cache.find_geometry(hash_geometry(first), first), 7);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(HashRaster, LengthDisambiguatesZeroRuns) {
  // All-zero rasters of different sizes hash differently: the byte stream
  // alone would collide (FNV over 0x00 bytes), the mixed-in length must not.
  const RasterKey four(4, 0);
  const RasterKey eight(8, 0);
  EXPECT_NE(hash_raster(four), hash_raster(eight));
}

TEST(HashRaster, SensitiveToEveryPixel) {
  // A packed 30 x 30 key: 900 pixels in 113 bytes, so the hash reads 14
  // whole words and a one-byte tail whose last four bits are pixels.
  constexpr std::size_t kPixels = 30 * 30;
  RasterKey base((kPixels + 7) / 8, 0);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<std::uint8_t>(i * 37);
  }
  base.back() &= 0x0f;
  const std::uint64_t reference = hash_raster(base);
  for (std::size_t bit = 0; bit < kPixels; ++bit) {
    RasterKey flipped = base;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(hash_raster(flipped), reference) << "pixel " << bit;
  }
}

}  // namespace
}  // namespace hotspot::scan
