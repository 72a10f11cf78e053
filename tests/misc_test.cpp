// Cross-cutting edge-case tests: metrics coverage accounting, SSD wear
// fractions, container corners.
#include <gtest/gtest.h>

#include "src/hybrid/metrics.hpp"
#include "src/ssd/ssd.hpp"
#include "src/util/bitmap.hpp"
#include "src/util/flat_lru_map.hpp"
#include "src/util/rng.hpp"

namespace ssdse {
namespace {

// --- RunMetrics coverage -------------------------------------------------

TEST(CoverageTest, FullCoverageIsOne) {
  RunMetrics m;
  m.record_coverage(4, 4);
  m.record_coverage(3, 3);
  EXPECT_DOUBLE_EQ(m.request_coverage(), 1.0);
}

TEST(CoverageTest, PartialCoverage) {
  RunMetrics m;
  m.record_coverage(1, 4);  // one of four requests served
  m.record_coverage(3, 4);
  EXPECT_DOUBLE_EQ(m.request_coverage(), 0.5);
}

TEST(CoverageTest, EmptyIsZero) {
  RunMetrics m;
  EXPECT_EQ(m.request_coverage(), 0.0);
}

TEST(CoverageTest, CacheServedFractionCountsS1toS5) {
  RunMetrics m;
  m.record(Situation::kS1_ResultMemory, micros(1));
  m.record(Situation::kS5_ListsSsd, micros(1));
  m.record(Situation::kS6_ListsMemoryHdd, micros(1));
  m.record(Situation::kS9_ListsHdd, micros(1));
  EXPECT_DOUBLE_EQ(m.cache_served_fraction(), 0.5);
}

// --- Ssd wear --------------------------------------------------------------

TEST(SsdWearTest, WearFractionsTrackErases) {
  SsdConfig cfg;
  cfg.nand.num_blocks = 32;
  cfg.nand.pages_per_block = 8;
  Ssd ssd(cfg);
  EXPECT_EQ(ssd.wear_fraction(), 0.0);
  EXPECT_EQ(ssd.worst_wear_fraction(), 0.0);
  Rng rng(4);
  for (int i = 0; i < 4000; ++i) {
    EXPECT_TRUE(ssd.write_pages(rng.next_below(ssd.logical_pages()), 1).ok());
  }
  ASSERT_GT(ssd.block_erases(), 0u);
  EXPECT_GT(ssd.wear_fraction(), 0.0);
  EXPECT_GE(ssd.worst_wear_fraction(), ssd.wear_fraction());
  // With the default 100k-cycle rating, wear is proportional to erases.
  EXPECT_NEAR(ssd.wear_fraction(100'000) * 10,
              ssd.wear_fraction(10'000), 1e-12);
}

// --- FlatLruMap clear -------------------------------------------------------

TEST(FlatLruMapEdgeTest, ClearEmptiesEverything) {
  FlatLruMap<int, int> m;
  m.insert(1, 1);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.touch(1), nullptr);
}

// --- Bitmap resize -----------------------------------------------------------

TEST(BitmapEdgeTest, ResizePreservesExistingBits) {
  // Tombstone maps grow one doc at a time; growth must not drop bits
  // set earlier (and shrink must recount what survives the cut).
  Bitmap b(10);
  b.set(3);
  b.resize(20, true);
  EXPECT_EQ(b.size(), 20u);
  EXPECT_TRUE(b.test(3));
  EXPECT_FALSE(b.test(4));  // old bits keep their old value...
  EXPECT_TRUE(b.test(10));  // ...new bits take `value`
  EXPECT_EQ(b.popcount(), 11u);
  b.resize(7, false);
  EXPECT_EQ(b.size(), 7u);
  EXPECT_TRUE(b.test(3));
  EXPECT_EQ(b.popcount(), 1u);
}

TEST(BitmapEdgeTest, ResizeAcrossWordBoundaries) {
  Bitmap b(60);
  b.set(59);
  b.resize(130, true);  // partial word tail + two fresh words
  EXPECT_TRUE(b.test(59));
  EXPECT_FALSE(b.test(0));
  for (std::size_t i = 60; i < 130; ++i) EXPECT_TRUE(b.test(i));
  EXPECT_EQ(b.popcount(), 71u);
  b.resize(64);  // shrink to an exact word boundary
  EXPECT_EQ(b.popcount(), 5u);  // 59..63 survive
  EXPECT_EQ(b.first_clear(), 0u);
}

TEST(BitmapEdgeTest, ExactWordBoundary) {
  Bitmap b(64, true);
  EXPECT_TRUE(b.all());
  EXPECT_EQ(b.first_clear(), 64u);
  b.clear(63);
  EXPECT_EQ(b.first_clear(), 63u);
}

}  // namespace
}  // namespace ssdse
