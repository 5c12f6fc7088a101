#include "layout/raster.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "dataset/patterns.h"
#include "support/raster_reference.h"
#include "tensor/tensor_ops.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace hotspot::layout {
namespace {

using tensor::Tensor;

TEST(RasterizeCoverage, FullRectFullCoverage) {
  Pattern pattern({Rect{0, 0, 100, 100}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 4);
  for (std::int64_t i = 0; i < raster.numel(); ++i) {
    EXPECT_NEAR(raster[i], 1.0f, 1e-6);
  }
}

TEST(RasterizeCoverage, HalfCoveredPixel) {
  // Rect covers the left half of a 1-pixel window.
  Pattern pattern({Rect{0, 0, 50, 100}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 1);
  EXPECT_NEAR(raster[0], 0.5f, 1e-6);
}

TEST(RasterizeCoverage, ExactAreaFractions) {
  // 25x25 rect in a 100x100 window at grid 2: only the top-left pixel (50nm
  // cells) sees it, covering a quarter.
  Pattern pattern({Rect{0, 0, 25, 25}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 2);
  EXPECT_NEAR(raster.at2(0, 0), 0.25f, 1e-6);
  EXPECT_NEAR(raster.at2(0, 1), 0.0f, 1e-6);
}

TEST(RasterizeCoverage, OverlappingRectsSaturate) {
  Pattern pattern({Rect{0, 0, 100, 100}, Rect{0, 0, 100, 100}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 2);
  EXPECT_LE(raster.max(), 1.0f);
}

TEST(RasterizeCoverage, GeometryOutsideWindowIgnored) {
  Pattern pattern({Rect{200, 200, 300, 300}});
  const Tensor raster =
      rasterize_coverage(pattern, Rect{0, 0, 100, 100}, 4);
  EXPECT_EQ(raster.max(), 0.0f);
}

// rasterize_coverage's floats, and rasterize_bits' coverage buffer through
// `scratch` (reused across calls), equal the per-pixel reference bit for bit.
void expect_coverage_matches_reference(const Pattern& pattern,
                                       const Rect& window, std::int64_t grid,
                                       RasterScratch& scratch) {
  const std::vector<float> expected =
      test_support::reference_coverage(pattern, window, grid);
  const auto first_mismatch = [&](const float* actual) {
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (std::memcmp(&actual[i], &expected[i], sizeof(float)) != 0) {
        return i;
      }
    }
    return expected.size();
  };
  const Tensor coverage = rasterize_coverage(pattern, window, grid);
  ASSERT_EQ(static_cast<std::size_t>(coverage.numel()), expected.size());
  const std::size_t bad = first_mismatch(coverage.data());
  EXPECT_EQ(bad, expected.size())
      << "rasterize_coverage, window " << to_string(window) << " grid "
      << grid << ": pixel " << bad << " is " << coverage.data()[bad]
      << ", reference " << expected[bad];
  std::vector<std::uint8_t> bits;
  rasterize_bits(pattern, window, grid, scratch, bits);
  ASSERT_EQ(scratch.coverage.size(), expected.size());
  EXPECT_EQ(first_mismatch(scratch.coverage.data()), expected.size())
      << "rasterize_bits, window " << to_string(window) << " grid " << grid;
}

TEST(RasterizeCoverage, MatchesPerPixelReference) {
  RasterScratch scratch;
  dataset::PatternParams params;
  // Every pattern family over several seeds, at the window it was drawn for
  // and at windows its rects cross, on dyadic and non-dyadic pitches.
  for (const auto& [edge, grid] :
       {std::pair<std::int64_t, std::int64_t>{1024, 32}, {1000, 30},
        {1201, 32}, {999, 7}, {1024, 30}, {1000, 128}}) {
    params.clip_nm = edge;
    for (int family = 0; family < dataset::kFamilyCount; ++family) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        util::Rng rng(seed * 131 + static_cast<std::uint64_t>(edge + family));
        const Pattern pattern = dataset::generate_pattern(
            static_cast<dataset::Family>(family), params, rng);
        for (const Rect& window :
             {Rect{0, 0, edge, edge},
              Rect{edge / 3, -edge / 5, edge / 3 + edge, -edge / 5 + edge},
              Rect{-edge / 2, edge / 4, edge / 2, edge / 4 + edge}}) {
          expect_coverage_matches_reference(pattern, window, grid, scratch);
        }
      }
    }
  }

  // Overlapping rects, and rects crossing every edge of the window.
  const Pattern overlapping({Rect{0, 0, 700, 600}, Rect{300, 200, 1000, 1000},
                             Rect{100, 500, 900, 800}, Rect{0, 0, 700, 600}});
  const Pattern crossing({Rect{-500, -500, 400, 3000},
                          Rect{900, 100, 4000, 350},
                          Rect{200, 950, 700, 2500},
                          Rect{-100, 600, 1100, 700}});
  // Slivers narrower than a pixel in x, in y and in both: inside one pixel,
  // straddling a pixel edge, on the window's far edges, and 1 nm wide.
  const std::vector<Rect> slivers{
      Rect{40, 0, 50, 1000},    Rect{60, 100, 70, 900},
      Rect{32, 0, 33, 1000},    Rect{999, 0, 1000, 1000},
      Rect{0, 500, 1000, 507},  Rect{100, 660, 900, 670},
      Rect{0, 999, 1000, 1000}, Rect{300, 300, 305, 309},
      Rect{64, 64, 69, 69},     Rect{995, 995, 1000, 1000},
      Rect{500, 500, 501, 501}};
  for (const auto& [edge, grid] :
       {std::pair<std::int64_t, std::int64_t>{1000, 30}, {1024, 32},
        {1201, 32}, {1000, 128}, {999, 7}}) {
    const Rect window{0, 0, edge, edge};
    expect_coverage_matches_reference(overlapping, window, grid, scratch);
    expect_coverage_matches_reference(crossing, window, grid, scratch);
    expect_coverage_matches_reference(Pattern(slivers), window, grid,
                                      scratch);
    for (const Rect& sliver : slivers) {
      expect_coverage_matches_reference(Pattern({sliver}), window, grid,
                                        scratch);
    }
  }
}

TEST(RasterizeBinary, ThresholdAtHalf) {
  Pattern pattern({Rect{0, 0, 60, 100}});  // 60% of the single pixel
  const Tensor binary = rasterize_binary(pattern, Rect{0, 0, 100, 100}, 1);
  EXPECT_EQ(binary[0], 1.0f);
  Pattern thin({Rect{0, 0, 40, 100}});  // 40%
  EXPECT_EQ(rasterize_binary(thin, Rect{0, 0, 100, 100}, 1)[0], 0.0f);
}

// rasterize_binary's output, bit-packed: what rasterize_bits must equal.
std::vector<std::uint8_t> packed_binary(const Pattern& pattern,
                                        const Rect& window,
                                        std::int64_t grid) {
  const Tensor binary = rasterize_binary(pattern, window, grid);
  const auto count = static_cast<std::size_t>(binary.numel());
  std::vector<std::uint8_t> packed(util::packed_bytes(count));
  util::pack_bits(binary.data(), count,
                  [](float pixel) { return pixel != 0.0f; }, packed.data());
  return packed;
}

// rasterize_bits into `scratch` equals packed_binary, bytes and size.
void expect_bits_match(const Pattern& pattern, const Rect& window,
                       std::int64_t grid, RasterScratch& scratch) {
  std::vector<std::uint8_t> bits;
  rasterize_bits(pattern, window, grid, scratch, bits);
  EXPECT_EQ(bits, packed_binary(pattern, window, grid))
      << "window " << to_string(window) << " grid " << grid;
}

// Every pattern family over several seeds, each at the window it was drawn
// for and at windows shifted so its rects cross every edge.
TEST(RasterizeBits, MatchesPackedBinaryOnEveryFamily) {
  const dataset::PatternParams params;
  const std::int64_t edge = params.clip_nm;
  RasterScratch scratch;
  for (int family = 0; family < dataset::kFamilyCount; ++family) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      util::Rng rng(seed * 31 + static_cast<std::uint64_t>(family));
      const Pattern pattern = dataset::generate_pattern(
          static_cast<dataset::Family>(family), params, rng);
      for (const Rect& window :
           {Rect{0, 0, edge, edge}, Rect{edge / 3, -edge / 5, edge / 3 + edge,
                                         -edge / 5 + edge},
            Rect{-edge / 2, edge / 4, edge / 2, edge / 4 + edge}}) {
        expect_bits_match(pattern, window, 32, scratch);
      }
    }
  }
}

// Overlapping rects add their coverage before the threshold: two 30%
// covers set a pixel neither sets alone.
TEST(RasterizeBits, OverlappingRectsSumBeforeThreshold) {
  const Rect window{0, 0, 100, 100};
  RasterScratch scratch;
  std::vector<std::uint8_t> bits;
  rasterize_bits(Pattern({Rect{0, 0, 30, 100}}), window, 1, scratch, bits);
  EXPECT_EQ(bits, std::vector<std::uint8_t>{0x00});
  const Pattern twice({Rect{0, 0, 30, 100}, Rect{0, 0, 30, 100}});
  rasterize_bits(twice, window, 1, scratch, bits);
  EXPECT_EQ(bits, std::vector<std::uint8_t>{0x01});
  const Pattern overlapping({Rect{0, 0, 70, 60}, Rect{30, 20, 100, 100},
                             Rect{10, 50, 90, 80}});
  for (const std::int64_t grid : {1, 3, 8, 16}) {
    expect_bits_match(overlapping, window, grid, scratch);
  }
}

TEST(RasterizeBits, EdgeCrossingAndEmptyWindows) {
  RasterScratch scratch;
  const Pattern crossing({Rect{-50, -50, 40, 300}, Rect{90, 10, 400, 35},
                          Rect{20, 95, 70, 250}, Rect{-10, 60, 110, 70}});
  expect_bits_match(crossing, Rect{0, 0, 100, 100}, 8, scratch);
  expect_bits_match(crossing, Rect{0, 0, 100, 100}, 30, scratch);
  std::vector<std::uint8_t> bits;
  rasterize_bits(Pattern(), Rect{0, 0, 100, 100}, 8, scratch, bits);
  EXPECT_EQ(bits, std::vector<std::uint8_t>(8, 0));
  rasterize_bits(Pattern({Rect{200, 200, 300, 300}}), Rect{0, 0, 100, 100},
                 8, scratch, bits);
  EXPECT_EQ(bits, std::vector<std::uint8_t>(8, 0));
}

// Pixel edges that are not whole nanometres.
TEST(RasterizeBits, NonDyadicPitches) {
  RasterScratch scratch;
  dataset::PatternParams params;
  for (const auto& [edge, grid] :
       {std::pair<std::int64_t, std::int64_t>{1000, 30}, {1201, 32},
        {999, 7}, {1024, 30}}) {
    params.clip_nm = edge;
    for (int family = 0; family < dataset::kFamilyCount; ++family) {
      util::Rng rng(static_cast<std::uint64_t>(edge * 7 + family));
      const Pattern pattern = dataset::generate_pattern(
          static_cast<dataset::Family>(family), params, rng);
      expect_bits_match(pattern, Rect{0, 0, edge, edge}, grid, scratch);
    }
  }
}

// grid² not a multiple of 8: the last byte holds grid² % 8 pixels and zero
// pad bits, even when every pixel is set.
TEST(RasterizeBits, PartialLastByteHasZeroPad) {
  RasterScratch scratch;
  const Pattern full({Rect{0, 0, 1000, 1000}});
  util::Rng rng(5);
  const Pattern comb = dataset::generate_pattern(dataset::Family::kComb,
                                                 dataset::PatternParams{}, rng);
  for (const std::int64_t grid : {1, 3, 7, 30}) {
    const auto pixels = static_cast<std::size_t>(grid * grid);
    std::vector<std::uint8_t> bits;
    rasterize_bits(full, Rect{0, 0, 1000, 1000}, grid, scratch, bits);
    ASSERT_EQ(bits.size(), util::packed_bytes(pixels)) << "grid " << grid;
    for (std::size_t i = 0; i + 1 < bits.size(); ++i) {
      EXPECT_EQ(bits[i], 0xff) << "grid " << grid << " byte " << i;
    }
    const unsigned tail = pixels % 8 == 0 ? 8u : pixels % 8;
    EXPECT_EQ(bits.back(), (1u << tail) - 1u) << "grid " << grid;
    expect_bits_match(full, Rect{0, 0, 1000, 1000}, grid, scratch);
    expect_bits_match(comb, Rect{0, 0, 1024, 1024}, grid, scratch);
  }
}

// One scratch from a dense window to an empty one: nothing carries over.
TEST(RasterizeBits, ScratchReusedFromDenseToEmpty) {
  RasterScratch scratch;
  std::vector<std::uint8_t> bits;
  rasterize_bits(Pattern({Rect{0, 0, 100, 100}}), Rect{0, 0, 100, 100}, 32,
                 scratch, bits);
  EXPECT_EQ(bits, std::vector<std::uint8_t>(128, 0xff));
  // A 40% cover would stay under the threshold on a clean buffer.
  rasterize_bits(Pattern({Rect{0, 0, 100, 40}}), Rect{0, 0, 100, 100}, 1,
                 scratch, bits);
  EXPECT_EQ(bits, std::vector<std::uint8_t>{0x00});
  rasterize_bits(Pattern({Rect{0, 0, 100, 100}}), Rect{0, 0, 100, 100}, 32,
                 scratch, bits);
  rasterize_bits(Pattern(), Rect{0, 0, 100, 100}, 32, scratch, bits);
  EXPECT_EQ(bits, std::vector<std::uint8_t>(128, 0x00));
}

}  // namespace
}  // namespace hotspot::layout
