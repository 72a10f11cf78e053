#include <vector>

#include <gtest/gtest.h>

#include "src/cache/ssd_result_cache.hpp"

namespace ssdse {
namespace {

SsdConfig small_ssd() {
  SsdConfig cfg;
  cfg.nand.num_blocks = 128;
  cfg.nand.pages_per_block = 64;  // real 128 KiB blocks: 6 slots per RB
  return cfg;
}

CachedResult cached(QueryId qid, std::uint64_t freq = 1) {
  CachedResult c;
  c.entry.query = qid;
  c.entry.docs = {{DocId{static_cast<std::uint32_t>(qid.raw())}, 1.0f}};
  c.freq = freq;
  return c;
}

std::vector<CachedResult> group(QueryId first, std::uint32_t n) {
  std::vector<CachedResult> g;
  for (QueryId q = first; q < first + n; ++q) g.push_back(cached(q));
  return g;
}

class SsdResultCacheTest : public ::testing::Test {
 protected:
  SsdResultCacheTest() : ssd_(small_ssd()), file_(ssd_, 0, 8),
                         cache_(file_, /*W=*/2) {}
  Ssd ssd_;
  SsdCacheFile file_;
  SsdResultCache cache_;
};

TEST_F(SsdResultCacheTest, SixSlotsPerRb) {
  EXPECT_EQ(cache_.results_per_rb(), 6u);
}

TEST_F(SsdResultCacheTest, InsertThenLookup) {
  auto g = group(QueryId{10}, 6);
  const Micros t = cache_.insert_rb(g);
  EXPECT_GT(t.value(), 0.0);
  EXPECT_EQ(cache_.entry_count(), 6u);
  std::uint64_t freq = 0;
  Micros rt = micros(0);
  const ResultEntry* e = cache_.lookup(QueryId{12}, freq, rt);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->query.raw(), 12u);
  EXPECT_EQ(freq, 2u);  // admission freq 1 + this hit
  EXPECT_GT(rt.value(), 0.0);
  EXPECT_EQ(cache_.lookup(QueryId{999}, freq, rt), nullptr);
}

TEST_F(SsdResultCacheTest, HitMarksBlockReplaceable) {
  auto g = group(QueryId{0}, 6);
  (void)cache_.insert_rb(g);
  std::uint64_t freq;
  Micros t = micros(0);
  cache_.lookup(QueryId{3}, freq, t);
  EXPECT_EQ(file_.replaceable_count(), 1u);
  // Second hit on the same RB does not double count.
  cache_.lookup(QueryId{4}, freq, t);
  EXPECT_EQ(file_.replaceable_count(), 1u);
}

TEST_F(SsdResultCacheTest, ResurrectCancelsRewrite) {
  auto g = group(QueryId{0}, 6);
  (void)cache_.insert_rb(g);
  std::uint64_t freq;
  Micros t = micros(0);
  cache_.lookup(QueryId{2}, freq, t);  // slot now memory-resident
  EXPECT_TRUE(cache_.resurrect(QueryId{2}));
  EXPECT_EQ(file_.replaceable_count(), 0u);  // block normal again
  // A slot that was never read back cannot be resurrected.
  EXPECT_FALSE(cache_.resurrect(QueryId{3}));
  EXPECT_FALSE(cache_.resurrect(QueryId{999}));
  EXPECT_EQ(cache_.stats().resurrections, 1u);
}

TEST_F(SsdResultCacheTest, VictimIsMaxIrenInWindow) {
  // Fill all 8 RBs.
  for (QueryId base{}; base < QueryId{48}; base = base + 6) {
    auto g = group(base, 6);
    (void)cache_.insert_rb(g);
  }
  auto g2 = group(QueryId{100}, 6);
  (void)cache_.insert_rb(g2);  // 8 blocks total in the region: one must go
  // Read back 3 entries of the second-oldest RB (queries 6..11) to give
  // it the largest IREN.
  std::uint64_t freq;
  Micros t = micros(0);
  // (Re-fill state: insert_rb above already evicted one RB. Rebuild a
  // clean scenario instead.)
  SsdCacheFile file2(ssd_, 8 * 64, 4);
  SsdResultCache cache2(file2, /*W=*/2);
  for (QueryId base{}; base < QueryId{24}; base = base + 6) {
    auto g3 = group(base, 6);
    (void)cache2.insert_rb(g3);
  }
  // LRU order of RBs (old->new): [0..5], [6..11], [12..17], [18..23].
  // Window W=2 covers the two oldest. Give the second-oldest more IREN.
  cache2.lookup(QueryId{6}, freq, t);
  cache2.lookup(QueryId{7}, freq, t);
  // Insert a new RB: victim must be the RB holding 6..11.
  auto g4 = group(QueryId{200}, 6);
  (void)cache2.insert_rb(g4);
  const ResultEntry* survivor = cache2.lookup(QueryId{0}, freq, t);
  EXPECT_NE(survivor, nullptr);  // oldest RB survived (lower IREN)
  EXPECT_EQ(cache2.lookup(QueryId{8}, freq, t), nullptr);  // dropped with its RB
  EXPECT_GT(cache2.stats().entries_dropped_by_overwrite, 0u);
}

TEST_F(SsdResultCacheTest, RewriteInvalidatesOldSlot) {
  auto g = group(QueryId{0}, 6);
  (void)cache_.insert_rb(g);
  // Re-insert query 0 in a later RB; old slot must be invalidated, and
  // the lookup must find the new copy.
  auto g2 = group(QueryId{0}, 1);
  (void)cache_.insert_rb(g2);
  std::uint64_t freq;
  Micros t = micros(0);
  EXPECT_NE(cache_.lookup(QueryId{0}, freq, t), nullptr);
  EXPECT_EQ(cache_.entry_count(), 6u);  // 5 from first RB + 1 rewritten
}

TEST_F(SsdResultCacheTest, OverwritingAnInvalidatedSlotKeepsTheNewerCopy) {
  // RB A holds query 0; invalidate it, then rewrite it into RB B.
  auto a = group(QueryId{0}, 6);
  (void)cache_.insert_rb(a);
  ASSERT_TRUE(cache_.invalidate(QueryId{0}));
  auto b = group(QueryId{0}, 1);
  (void)cache_.insert_rb(b);
  // Fill the 8-RB file, then write one more RB. A sits at the LRU end
  // with the window's largest IREN (its invalid slot), so it is the
  // victim.
  for (QueryId base{100}; base < QueryId{136}; base = base + 6) {
    auto g = group(base, 6);
    (void)cache_.insert_rb(g);
  }
  auto extra = group(QueryId{500}, 6);
  (void)cache_.insert_rb(extra);
  std::uint64_t freq = 0;
  Micros t = micros(0);
  EXPECT_EQ(cache_.lookup(QueryId{1}, freq, t), nullptr);  // A is gone
  const ResultEntry* e = cache_.lookup(QueryId{0}, freq, t);
  ASSERT_NE(e, nullptr);  // B's copy outlives A's overwrite
  EXPECT_EQ(e->query, QueryId{0});
}

TEST_F(SsdResultCacheTest, PartialGroupsSupported) {
  auto g = group(QueryId{0}, 3);
  (void)cache_.insert_rb(g);
  EXPECT_EQ(cache_.entry_count(), 3u);
  std::uint64_t freq;
  Micros t = micros(0);
  EXPECT_NE(cache_.lookup(QueryId{1}, freq, t), nullptr);
}

TEST_F(SsdResultCacheTest, StaticPreloadPinnedAndHit) {
  std::vector<CachedResult> hot;
  for (QueryId q = QueryId{500}; q < QueryId{512}; ++q) hot.push_back(cached(q, 10));
  (void)cache_.preload_static(hot);
  EXPECT_TRUE(cache_.is_static(QueryId{505}));
  EXPECT_FALSE(cache_.is_static(QueryId{5}));
  std::uint64_t freq;
  Micros t = micros(0);
  const ResultEntry* e = cache_.lookup(QueryId{505}, freq, t);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(freq, 11u);
  // Static blocks never become replaceable on hits.
  EXPECT_EQ(file_.replaceable_count(), 0u);
}

TEST_F(SsdResultCacheTest, StaticSurvivesDynamicChurn) {
  std::vector<CachedResult> hot;
  for (QueryId q = QueryId{500}; q < QueryId{506}; ++q) hot.push_back(cached(q, 10));
  (void)cache_.preload_static(hot);
  // Churn far more dynamic RBs than the region holds.
  for (QueryId base{}; base < QueryId{600}; base = base + 6) {
    auto g = group(base, 6);
    (void)cache_.insert_rb(g);
  }
  std::uint64_t freq;
  Micros t = micros(0);
  EXPECT_NE(cache_.lookup(QueryId{503}, freq, t), nullptr);
}

TEST_F(SsdResultCacheTest, StatsCountWrites) {
  auto g = group(QueryId{0}, 6);
  (void)cache_.insert_rb(g);
  EXPECT_EQ(cache_.stats().rb_writes, 1u);
  EXPECT_EQ(cache_.stats().entries_written, 6u);
}

}  // namespace
}  // namespace ssdse
