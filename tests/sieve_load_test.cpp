// Tests for the SieveStore-style admission filter and the session-burst
// workload option.
#include <gtest/gtest.h>

#include "src/cache/sieve_filter.hpp"
#include "src/hybrid/search_system.hpp"
#include "src/workload/query_log.hpp"

namespace ssdse {
namespace {

// --- SieveFilter ---------------------------------------------------------

TEST(SieveFilterTest, ThresholdOneAdmitsEverything) {
  SieveFilter sieve(1, 100);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(sieve.observe_and_admit(i));
  EXPECT_EQ(sieve.stats().admissions, 10u);
  EXPECT_EQ(sieve.stats().rejections, 0u);
}

TEST(SieveFilterTest, AdmitsOnNthObservation) {
  SieveFilter sieve(3, 100);
  EXPECT_FALSE(sieve.observe_and_admit(7));  // count 1
  EXPECT_FALSE(sieve.observe_and_admit(7));  // count 2
  EXPECT_TRUE(sieve.observe_and_admit(7));   // count 3 -> admit
  // Counter consumed: the key must re-prove itself.
  EXPECT_FALSE(sieve.observe_and_admit(7));
  EXPECT_EQ(sieve.count(7), 1u);
}

TEST(SieveFilterTest, GhostTableAgesOutColdKeys) {
  SieveFilter sieve(2, /*ghost_capacity=*/4);
  sieve.observe_and_admit(1);  // count 1
  for (std::uint64_t k = 100; k < 104; ++k) sieve.observe_and_admit(k);
  // Key 1 aged out of the 4-entry ghost: its count restarts.
  EXPECT_EQ(sieve.count(1), 0u);
  EXPECT_FALSE(sieve.observe_and_admit(1));
  EXPECT_EQ(sieve.ghost_size(), 4u);
}

TEST(SieveFilterTest, SystemIntegrationReducesSsdInserts) {
  auto inserts = [](std::uint32_t threshold) {
    SystemConfig cfg;
    cfg.set_num_docs(200'000);
    cfg.set_memory_budget(4 * MiB);
    cfg.cache.sieve_threshold = threshold;
    cfg.training_queries = 500;
    SearchSystem system(cfg);
    system.run(4'000);
    return system.cache_manager().ssd_lists()->stats().inserts;
  };
  EXPECT_LT(inserts(3), inserts(0));
}

// --- Session bursts ----------------------------------------------------------

TEST(BurstTest, BurstsRaiseShortTermRepetition) {
  auto repeats_in_window = [](double burst_prob) {
    QueryLogConfig cfg;
    cfg.distinct_queries = 1'000'000;
    cfg.vocab_size = 10'000;
    cfg.burst_probability = burst_prob;
    cfg.burst_window = 32;
    QueryLogGenerator gen(cfg);
    std::vector<QueryId> last;
    std::uint64_t repeats = 0;
    for (int i = 0; i < 5'000; ++i) {
      const Query q = gen.next();
      for (QueryId id : last) repeats += id == q.id;
      last.push_back(q.id);
      if (last.size() > 32) last.erase(last.begin());
    }
    return repeats;
  };
  EXPECT_GT(repeats_in_window(0.4), repeats_in_window(0.0) * 3);
}

TEST(BurstTest, DisabledByDefaultKeepsStreamUnchanged) {
  QueryLogConfig cfg;
  cfg.vocab_size = 10'000;
  QueryLogGenerator a(cfg), b(cfg);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.next().id, b.next().id);
  }
}

}  // namespace
}  // namespace ssdse
