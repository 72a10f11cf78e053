#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/bitmap.hpp"
#include "src/util/flat_lru_map.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/util/table.hpp"
#include "src/util/zipf.hpp"

namespace ssdse {
namespace {

// --- Rng ---------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng r(7);
  for (std::uint64_t n : {1ull, 2ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(n), n);
  }
}

TEST(RngTest, NextBelowOneAlwaysZero) {
  Rng r(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-3.0, 4.5);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 4.5);
  }
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng r(17);
  StreamingStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(RngTest, LognormalPositive) {
  Rng r(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(r.lognormal(0.0, 1.0), 0.0);
}

TEST(RngTest, ChanceExtremes) {
  Rng r(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(RngTest, SplitStreamsIndependent) {
  Rng a(42);
  Rng b = a.split();
  // The split stream must not replay the parent stream.
  Rng a2(42);
  (void)a2.next_u64();  // consume the value split() drew
  int same = 0;
  for (int i = 0; i < 64; ++i) same += b.next_u64() == a2.next_u64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, GeometricAtLeastOne) {
  Rng r(29);
  for (int i = 0; i < 500; ++i) EXPECT_GE(r.geometric(0.3), 1u);
}

// --- Zipf --------------------------------------------------------------

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler z(1000, 1.0);
  double sum = 0;
  for (std::uint64_t k = 1; k <= 1000; ++k) sum += z.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, PmfMonotoneDecreasing) {
  ZipfSampler z(500, 0.8);
  for (std::uint64_t k = 1; k < 500; ++k) {
    EXPECT_GE(z.pmf(k), z.pmf(k + 1));
  }
}

TEST(ZipfTest, PmfOutOfRangeIsZero) {
  ZipfSampler z(10, 1.0);
  EXPECT_EQ(z.pmf(0), 0.0);
  EXPECT_EQ(z.pmf(11), 0.0);
}

TEST(ZipfTest, SamplesWithinRange) {
  ZipfSampler z(100, 1.2);
  Rng r(1);
  for (int i = 0; i < 5000; ++i) {
    const auto k = z.sample(r);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 100u);
  }
}

TEST(ZipfTest, EmpiricalMatchesPmf) {
  const std::uint64_t n = 50;
  ZipfSampler z(n, 1.0);
  Rng r(2);
  std::vector<std::uint64_t> counts(n + 1, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[z.sample(r)];
  for (std::uint64_t k = 1; k <= 5; ++k) {
    const double expected = z.pmf(k);
    const double got = static_cast<double>(counts[k]) / draws;
    EXPECT_NEAR(got, expected, 0.01) << "rank " << k;
  }
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  ZipfSampler z(10, 0.0);
  Rng r(3);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(r)];
  for (int k = 1; k <= 10; ++k) {
    EXPECT_NEAR(counts[k] / 100000.0, 0.1, 0.01);
  }
}

TEST(ZipfTest, LargeNSamplingWorks) {
  ZipfSampler z(100'000'000, 0.9);
  Rng r(4);
  for (int i = 0; i < 1000; ++i) {
    const auto k = z.sample(r);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 100'000'000u);
  }
}

TEST(ZipfTest, GeneralizedHarmonicMatchesDirectSum) {
  for (double s : {0.5, 1.0, 1.5}) {
    double direct = 0;
    for (std::uint64_t k = 1; k <= 20000; ++k) {
      direct += std::pow(static_cast<double>(k), -s);
    }
    EXPECT_NEAR(generalized_harmonic(20000, s), direct, direct * 1e-6)
        << "s=" << s;
  }
}

// --- Alias-method Zipf (Vose) -------------------------------------------

TEST(AliasZipfTest, PmfMatchesRejectionSampler) {
  const std::uint64_t n = 1000;
  ZipfSampler ref(n, 1.0);
  AliasZipfSampler alias(n, 1.0);
  for (std::uint64_t k = 1; k <= n; ++k) {
    EXPECT_DOUBLE_EQ(alias.pmf(k), ref.pmf(k)) << "rank " << k;
  }
  EXPECT_EQ(alias.pmf(0), 0.0);
  EXPECT_EQ(alias.pmf(n + 1), 0.0);
}

TEST(AliasZipfTest, SamplesWithinRange) {
  AliasZipfSampler z(100, 1.2);
  Rng r(5);
  for (int i = 0; i < 5000; ++i) {
    const auto k = z.sample(r);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 100u);
  }
}

TEST(AliasZipfTest, EmpiricalMatchesPmf) {
  const std::uint64_t n = 50;
  AliasZipfSampler z(n, 1.0);
  Rng r(6);
  std::vector<std::uint64_t> counts(n + 1, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[z.sample(r)];
  for (std::uint64_t k = 1; k <= 5; ++k) {
    const double expected = z.pmf(k);
    const double got = static_cast<double>(counts[k]) / draws;
    EXPECT_NEAR(got, expected, 0.01) << "rank " << k;
  }
}

TEST(AliasZipfTest, ExactlyTwoDrawsPerSample) {
  AliasZipfSampler z(1000, 1.0);
  // Two identically-seeded streams: one drives the sampler, the other
  // is advanced by hand two draws per sample. If the sampler consumed
  // any other number of values the streams would diverge.
  Rng a(7), b(7);
  for (int i = 0; i < 2000; ++i) {
    (void)z.sample(a);
    (void)b.next_below(1000);
    (void)b.next_double();
    // The probe draw advances both streams equally, so any draw-count
    // mismatch keeps the streams diverged for the rest of the loop.
    ASSERT_EQ(a.next_u64(), b.next_u64()) << "sample " << i;
  }
}

TEST(AliasZipfTest, DeterministicAcrossInstances) {
  AliasZipfSampler z1(5000, 0.9), z2(5000, 0.9);
  Rng a(8), b(8);
  for (int i = 0; i < 2000; ++i) EXPECT_EQ(z1.sample(a), z2.sample(b));
}

TEST(AliasZipfTest, RejectsDegenerateSizes) {
  EXPECT_THROW(AliasZipfSampler(0, 1.0), std::invalid_argument);
}

// --- StreamingStats ------------------------------------------------------

TEST(StatsTest, BasicMoments) {
  StreamingStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(StatsTest, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StatsTest, MergeEqualsCombined) {
  Rng r(6);
  StreamingStats a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.normal(5.0, 2.0);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatsTest, MergeWithEmpty) {
  StreamingStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

// --- LatencyHistogram ----------------------------------------------------

TEST(HistogramTest, QuantilesOrdered) {
  LatencyHistogram h;
  Rng r(8);
  for (int i = 0; i < 10000; ++i) h.add(r.lognormal(3.0, 1.0));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
}

TEST(HistogramTest, QuantileApproximatesUniform) {
  LatencyHistogram h(0.1, 1e8, 1.05);
  for (int i = 1; i <= 10000; ++i) h.add(static_cast<double>(i));
  // p50 of 1..10000 is ~5000; bucketing error bounded by growth factor.
  EXPECT_NEAR(h.quantile(0.5), 5000, 5000 * 0.06);
  EXPECT_NEAR(h.mean(), 5000.5, 1.0);
}

TEST(HistogramTest, EmptyQuantileZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramTest, ExtremeQuantilesOfEmpty) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, SingleSampleAllQuantilesAgree) {
  LatencyHistogram h;
  h.add(42.0);
  const double q0 = h.quantile(0.0);
  EXPECT_EQ(h.quantile(0.5), q0);
  EXPECT_EQ(h.quantile(1.0), q0);
  // Bucketed value within one growth factor of the sample.
  EXPECT_NEAR(q0, 42.0, 42.0 * 0.15);
  EXPECT_EQ(h.mean(), 42.0);
}

TEST(HistogramTest, BelowLoClampsToFirstBucket) {
  LatencyHistogram h(/*lo=*/1.0, /*hi=*/1e6, /*growth=*/1.5);
  h.add(0.001);
  h.add(-5.0);  // pathological but must not crash or misindex
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.quantile(0.5), 1.0);  // bucket 0 reports lo
  EXPECT_EQ(h.quantile(1.0), 1.0);
}

TEST(HistogramTest, AboveHiClampsToLastBucket) {
  LatencyHistogram h(/*lo=*/1.0, /*hi=*/100.0, /*growth=*/2.0);
  h.add(1e12);
  h.add(1e15);
  EXPECT_EQ(h.count(), 2u);
  // Both land in the overflow bucket; the reported quantile is finite
  // and at least hi.
  const double q = h.quantile(0.5);
  EXPECT_GE(q, 100.0);
  EXPECT_LT(q, 1e6);  // bounded by the bucket geometry, not the sample
}

TEST(HistogramTest, MergeOfSplitsEqualsWhole) {
  LatencyHistogram whole, a, b;
  Rng r(123);
  for (int i = 0; i < 20000; ++i) {
    const double x = r.lognormal(4.0, 1.5);
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  // Summation order differs between the split and the whole stream, so
  // the mean agrees only to rounding.
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12 * whole.mean());
  // Bucket-exact merge: identical quantiles, not just close ones.
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile(q), whole.quantile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, MergeRejectsMismatchedGeometry) {
  LatencyHistogram a(0.1, 1e8, 1.15);
  LatencyHistogram different_growth(0.1, 1e8, 1.2);
  LatencyHistogram different_lo(1.0, 1e8, 1.15);
  EXPECT_THROW(a.merge(different_growth), std::invalid_argument);
  EXPECT_THROW(a.merge(different_lo), std::invalid_argument);
}

TEST(StatsTest, MergeOfManySplitsEqualsWhole) {
  // Property backing the cross-shard aggregation: splitting a sample
  // stream across N shards and merging the shard stats reproduces the
  // whole-stream stats.
  Rng r(77);
  StreamingStats whole;
  StreamingStats shards[4];
  for (int i = 0; i < 10000; ++i) {
    const double x = r.lognormal(2.0, 1.0);
    whole.add(x);
    shards[i % 4].add(x);
  }
  StreamingStats merged;
  for (auto& s : shards) merged.merge(s);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9 * whole.mean());
  EXPECT_NEAR(merged.variance(), whole.variance(),
              1e-6 * whole.variance());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
}

// --- Counter -------------------------------------------------------------

TEST(CounterTest, CountsAndSorts) {
  Counter c;
  c.add(5);
  c.add(5);
  c.add(7, 10);
  c.add(9);
  EXPECT_EQ(c.total(), 13u);
  EXPECT_EQ(c.distinct(), 3u);
  EXPECT_EQ(c.count_of(5), 2u);
  EXPECT_EQ(c.count_of(404), 0u);
  const auto sorted = c.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].first, 7u);
  EXPECT_EQ(sorted[0].second, 10u);
}

// --- Bitmap --------------------------------------------------------------

TEST(BitmapTest, SetClearPopcount) {
  Bitmap b(130);
  EXPECT_EQ(b.popcount(), 0u);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_EQ(b.popcount(), 3u);
  EXPECT_TRUE(b.test(64));
  b.clear(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.popcount(), 2u);
  b.set(0);  // idempotent
  EXPECT_EQ(b.popcount(), 2u);
}

TEST(BitmapTest, FirstClear) {
  Bitmap b(70, true);
  EXPECT_EQ(b.first_clear(), 70u);
  b.clear(65);
  EXPECT_EQ(b.first_clear(), 65u);
  b.clear(3);
  EXPECT_EQ(b.first_clear(), 3u);
}

TEST(BitmapTest, FillAndAllNone) {
  Bitmap b(100);
  EXPECT_TRUE(b.none());
  b.fill(true);
  EXPECT_TRUE(b.all());
  EXPECT_EQ(b.popcount(), 100u);
  b.fill(false);
  EXPECT_TRUE(b.none());
}

TEST(BitmapTest, AssignDispatches) {
  Bitmap b(8);
  b.assign(2, true);
  EXPECT_TRUE(b.test(2));
  b.assign(2, false);
  EXPECT_FALSE(b.test(2));
}

// --- FlatLruMap ----------------------------------------------------------

using IntLru = FlatLruMap<int, int>;

TEST(FlatLruMapTest, InsertTouchEvictOrder) {
  IntLru m;
  m.insert(1, 10);
  m.insert(2, 20);
  m.insert(3, 30);
  EXPECT_EQ(m.key_at(m.lru_handle()), 1);
  EXPECT_NE(m.touch(1), nullptr);  // 1 becomes MRU
  EXPECT_EQ(m.key_at(m.lru_handle()), 2);
  auto victim = m.pop_lru();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->first, 2);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatLruMapTest, PeekDoesNotPromote) {
  IntLru m;
  m.insert(1, 10);
  m.insert(2, 20);
  EXPECT_NE(m.peek(1), nullptr);
  EXPECT_EQ(m.key_at(m.lru_handle()), 1);  // still LRU
}

TEST(FlatLruMapTest, InsertExistingPromotesAndOverwrites) {
  IntLru m;
  m.insert(1, 10);
  m.insert(2, 20);
  m.insert(1, 11);
  EXPECT_EQ(*m.peek(1), 11);
  EXPECT_EQ(m.key_at(m.lru_handle()), 2);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatLruMapTest, EraseByKey) {
  IntLru m;
  m.insert(1, 10);
  auto v = m.erase(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 10);
  EXPECT_FALSE(m.erase(1).has_value());
  EXPECT_TRUE(m.empty());
}

TEST(FlatLruMapTest, HandleWalksFromBothEnds) {
  IntLru m;
  for (int i = 0; i < 5; ++i) m.insert(i, i);
  std::vector<int> lru_first;
  for (auto h = m.lru_handle(); h != IntLru::npos; h = m.more_recent(h)) {
    lru_first.push_back(m.key_at(h));
  }
  EXPECT_EQ(lru_first, (std::vector<int>{0, 1, 2, 3, 4}));
  std::vector<int> mru_first;
  for (auto h = m.mru_handle(); h != IntLru::npos; h = m.less_recent(h)) {
    mru_first.push_back(m.key_at(h));
  }
  EXPECT_EQ(mru_first, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(FlatLruMapTest, MissingKeyBehaviour) {
  IntLru m;
  EXPECT_EQ(m.touch(42), nullptr);
  EXPECT_EQ(m.peek(42), nullptr);
  EXPECT_FALSE(m.pop_lru().has_value());
  EXPECT_EQ(m.lru_handle(), IntLru::npos);
  EXPECT_EQ(m.mru_handle(), IntLru::npos);
}

// --- Table ---------------------------------------------------------------

TEST(TableTest, RendersAlignedColumns) {
  Table t({"a", "long-header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  // Separator line present.
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::integer(-7), "-7");
  EXPECT_EQ(Table::percent(0.1234, 1), "12.3%");
}

TEST(TableTest, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.to_string());
}

}  // namespace
}  // namespace ssdse
