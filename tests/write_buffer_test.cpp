#include <gtest/gtest.h>

#include "src/cache/write_buffer.hpp"

namespace ssdse {
namespace {

CachedResult cached(QueryId qid, std::uint64_t freq = 1) {
  CachedResult c;
  c.entry.query = qid;
  c.freq = freq;
  return c;
}

TEST(WriteBufferTest, GroupsAtConfiguredSize) {
  WriteBuffer wb(3);
  EXPECT_TRUE(wb.push(cached(QueryId{1})).empty());
  EXPECT_TRUE(wb.push(cached(QueryId{2})).empty());
  auto group = wb.push(cached(QueryId{3}));
  EXPECT_EQ(group.size(), 3u);
  EXPECT_EQ(wb.size(), 0u);
  EXPECT_EQ(wb.stats().flush_groups, 1u);
}

TEST(WriteBufferTest, DuplicatePushKeepsNewest) {
  WriteBuffer wb(3);
  wb.push(cached(QueryId{1}, 5));
  wb.push(cached(QueryId{1}, 2));
  EXPECT_EQ(wb.size(), 1u);
  auto taken = wb.take(QueryId{1});
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->freq, 5u);  // larger frequency preserved
}

TEST(WriteBufferTest, TakeRemovesAndCounts) {
  WriteBuffer wb(4);
  wb.push(cached(QueryId{1}));
  wb.push(cached(QueryId{2}));
  EXPECT_TRUE(wb.contains(QueryId{1}));
  auto taken = wb.take(QueryId{1});
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->entry.query.raw(), 1u);
  EXPECT_FALSE(wb.contains(QueryId{1}));
  EXPECT_EQ(wb.size(), 1u);
  EXPECT_EQ(wb.stats().buffer_hits, 1u);
  EXPECT_FALSE(wb.take(QueryId{1}).has_value());
}

TEST(WriteBufferTest, CancelDropsWithoutFlush) {
  WriteBuffer wb(2);
  wb.push(cached(QueryId{1}));
  EXPECT_TRUE(wb.cancel(QueryId{1}));
  EXPECT_FALSE(wb.cancel(QueryId{1}));
  EXPECT_EQ(wb.size(), 0u);
  EXPECT_EQ(wb.stats().cancelled, 1u);
  // The next push does not form a group (buffer was emptied).
  EXPECT_TRUE(wb.push(cached(QueryId{2})).empty());
}

TEST(WriteBufferTest, DrainReturnsShortGroup) {
  WriteBuffer wb(6);
  wb.push(cached(QueryId{1}));
  wb.push(cached(QueryId{2}));
  auto rest = wb.drain();
  EXPECT_EQ(rest.size(), 2u);
  EXPECT_EQ(wb.size(), 0u);
  EXPECT_TRUE(wb.drain().empty());
}

TEST(WriteBufferTest, GroupSizeOneFlushesImmediately) {
  WriteBuffer wb(1);
  auto group = wb.push(cached(QueryId{9}));
  EXPECT_EQ(group.size(), 1u);
}

TEST(WriteBufferTest, StatsCountBuffered) {
  WriteBuffer wb(10);
  for (QueryId q{}; q < QueryId{5}; ++q) wb.push(cached(q));
  EXPECT_EQ(wb.stats().buffered, 5u);
}

TEST(WriteBufferTest, DrainPartialRbResetsGrouping) {
  WriteBuffer wb(6);
  for (QueryId q{}; q < QueryId{4}; ++q) wb.push(cached(q));
  auto rest = wb.drain();  // partial RB: 4 of 6 slots
  EXPECT_EQ(rest.size(), 4u);
  EXPECT_EQ(wb.stats().flush_groups, 1u);
  // The group counter starts over: the next full group needs 6 fresh
  // entries, not 2.
  for (QueryId q = QueryId{10}; q < QueryId{15}; ++q) {
    EXPECT_TRUE(wb.push(cached(q)).empty());
  }
  auto group = wb.push(cached(QueryId{15}));
  EXPECT_EQ(group.size(), 6u);
}

TEST(WriteBufferTest, DrainTwiceSecondIsEmptyAndUncounted) {
  WriteBuffer wb(6);
  wb.push(cached(QueryId{1}));
  EXPECT_EQ(wb.drain().size(), 1u);
  EXPECT_TRUE(wb.drain().empty());
  EXPECT_TRUE(wb.drain().empty());
  // Empty drains are not flush groups.
  EXPECT_EQ(wb.stats().flush_groups, 1u);
}

TEST(WriteBufferTest, DrainInterleavedWithEvictions) {
  WriteBuffer wb(6);
  wb.push(cached(QueryId{1}));
  wb.push(cached(QueryId{2}));
  wb.push(cached(QueryId{3}));
  wb.take(QueryId{2});    // read back to L1 (buffer hit)
  wb.cancel(QueryId{1});  // SSD copy resurrected instead
  auto rest = wb.drain();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].entry.query, QueryId{3});
  EXPECT_EQ(wb.stats().buffer_hits, 1u);
  EXPECT_EQ(wb.stats().cancelled, 1u);
  // Drained entries are gone for good: no stale probes.
  EXPECT_FALSE(wb.contains(QueryId{3}));
  EXPECT_FALSE(wb.take(QueryId{3}).has_value());
}

TEST(WriteBufferTest, DrainKeepsMergedDuplicateState) {
  WriteBuffer wb(6);
  wb.push(cached(QueryId{7}, 9));
  wb.push(cached(QueryId{7}, 4));  // re-eviction merges into one slot
  auto rest = wb.drain();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].entry.query, QueryId{7});
  EXPECT_EQ(rest[0].freq, 9u);  // max frequency survives the merge
}

}  // namespace
}  // namespace ssdse
