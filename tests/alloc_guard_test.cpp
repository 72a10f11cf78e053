// Allocation guard for the serving paths (DESIGN.md §8, §15).
//
// This binary replaces the global operator new with a counting one and
// measures heap allocations per query on warm servers:
//  * SearchSystem::execute over a materialized index (real postings,
//    CBSLRU with an SSD L2, the write buffer and the FTL underneath);
//  * the same path under CBLRU with result evictions streaming through
//    the write buffer: about one RB group flushed per nine queries;
//  * SearchCluster::execute at R=2 with hedging and failover on, one
//    replica spiking, so the broker merge and the policy stack run.
// Each bound sits a little above the measured steady state (3.08, 3.38
// and 13.17 allocations per query, with or without sanitizers). A
// per-query hash map, a re-sort buffer or a per-call scratch vector on
// any of these paths pushes the count past it; so does a write buffer
// that reallocates its group storage per flush.
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "src/hybrid/cluster.hpp"
#include "src/hybrid/search_system.hpp"
#include "src/index/corpus.hpp"
#include "src/index/inverted_index.hpp"
#include "src/util/rng.hpp"

namespace {

// Nothing in the repository starts a thread, so a plain counter will do.
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ssdse {
namespace {

/// Heap allocations per call of `serve` over `queries`, all generated
/// before counting starts.
template <class Serve>
double allocations_per_query(const std::vector<Query>& queries, Serve serve) {
  const std::uint64_t before = g_allocations;
  for (const Query& q : queries) serve(q);
  return static_cast<double>(g_allocations - before) /
         static_cast<double>(queries.size());
}

template <class Gen>
std::vector<Query> take(Gen& gen, std::size_t n) {
  std::vector<Query> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) queries.push_back(gen.next());
  return queries;
}

TEST(AllocGuardTest, CountingOperatorNewSeesAllocations) {
  const std::uint64_t before = g_allocations;
  auto* v = new std::vector<int>(100);
  delete v;
  EXPECT_EQ(g_allocations - before, 2u);
}

TEST(AllocGuardTest, MaterializedExecuteAllocatesALittlePerQuery) {
  CorpusConfig cc;
  cc.num_docs = 10'000;
  cc.vocab_size = 1'000;
  cc.terms_per_doc = 40;
  Rng rng(cc.seed);
  const MaterializedCorpus corpus(cc, rng);
  MaterializedIndex index(corpus);
  SystemConfig cfg;
  cfg.corpus = cc;
  cfg.log.vocab_size = cc.vocab_size;
  cfg.log.distinct_queries = 20'000;
  cfg.log.min_terms = 2;
  cfg.log.max_terms = 3;
  cfg.cache.policy = CachePolicy::kCbslru;
  cfg.set_memory_budget(MiB);
  cfg.cache.ssd_result_capacity = MiB;
  cfg.cache.ssd_list_capacity = 4 * MiB;
  // A cache SSD with little room beyond the two caches, so the FTL
  // collects garbage in the timed window too.
  NandConfig& nand = cfg.cache_ssd.nand;
  nand.num_blocks = static_cast<std::uint32_t>(
      6 * MiB / nand.block_bytes() /
          (1.0 - cfg.cache_ssd.ftl.over_provisioning) +
      16);
  cfg.training_queries = 1'000;
  SearchSystem sys(cfg, index);

  const std::vector<Query> warm = take(sys.generator(), 3'000);
  for (const Query& q : warm) (void)sys.execute(q);
  const std::vector<Query> timed = take(sys.generator(), 2'000);
  const std::uint64_t gc0 = sys.cache_ssd()->ftl().stats().gc_invocations;
  const double per_query = allocations_per_query(
      timed, [&sys](const Query& q) { (void)sys.execute(q); });
  std::printf("materialized execute: %.2f allocations per query\n",
              per_query);
  EXPECT_GT(sys.cache_ssd()->ftl().stats().gc_invocations, gc0);
  EXPECT_LE(per_query, 4.0);
}

TEST(AllocGuardTest, ResultEvictionsFlushThroughTheWriteBuffer) {
  // A hot, repeating stream of 200 distinct queries over an L1 result
  // cache of ten entries and an SSD result cache of four RBs: results
  // are evicted, recomputed and evicted again, and with the admission
  // bar at one use every eviction goes through the write buffer, so RB
  // groups assemble and flush inside the timed window.
  CorpusConfig cc;
  cc.num_docs = 10'000;
  cc.vocab_size = 1'000;
  cc.terms_per_doc = 40;
  Rng rng(cc.seed);
  const MaterializedCorpus corpus(cc, rng);
  MaterializedIndex index(corpus);
  SystemConfig cfg;
  cfg.corpus = cc;
  cfg.log.vocab_size = cc.vocab_size;
  cfg.log.distinct_queries = 200;
  cfg.log.min_terms = 2;
  cfg.log.max_terms = 3;
  cfg.cache.policy = CachePolicy::kCblru;
  cfg.set_memory_budget(MiB);
  cfg.cache.ssd_result_capacity = 512 * KiB;
  cfg.cache.min_result_freq_for_ssd = 1;
  cfg.training_queries = 1'000;
  SearchSystem sys(cfg, index);

  const std::vector<Query> warm = take(sys.generator(), 3'000);
  for (const Query& q : warm) (void)sys.execute(q);
  const std::vector<Query> timed = take(sys.generator(), 2'000);
  const WriteBufferStats& wb = sys.cache_manager().write_buffer().stats();
  const std::uint64_t groups0 = wb.flush_groups;
  const double per_query = allocations_per_query(
      timed, [&sys](const Query& q) { (void)sys.execute(q); });
  std::printf("result evictions: %.2f allocations per query, %llu RB "
              "groups flushed\n",
              per_query,
              static_cast<unsigned long long>(wb.flush_groups - groups0));
  EXPECT_GE(wb.flush_groups - groups0, 100u);
  EXPECT_LE(per_query, 3.6);
}

TEST(AllocGuardTest, ClusterExecuteAllocatesALittlePerServe) {
  ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.total_docs = 400'000;
  cfg.shard_template.cache.policy = CachePolicy::kCbslru;
  cfg.shard_template.set_memory_budget(2 * MiB);
  cfg.shard_template.training_queries = 500;
  cfg.replication.replication_factor = 2;
  cfg.replication.hedge_delay = ms(30);
  cfg.replication.failover = true;
  ReplicaFaultOverride sick;
  sick.hdd.latency_spike_rate = 0.05;
  sick.hdd.spike_latency = ms(40);
  cfg.replica_faults.push_back(sick);
  SearchCluster cluster(cfg);

  const std::vector<Query> warm = take(cluster.generator(), 3'000);
  for (const Query& q : warm) (void)cluster.execute(q);
  const std::vector<Query> timed = take(cluster.generator(), 2'000);
  const std::uint64_t hedges0 = cluster.replication_snapshot().hedges;
  const double per_serve = allocations_per_query(
      timed, [&cluster](const Query& q) { (void)cluster.execute(q); });
  std::printf("cluster execute: %.2f allocations per serve\n", per_serve);
  EXPECT_GT(cluster.replication_snapshot().hedges, hedges0);
  EXPECT_LE(per_serve, 16.0);
}

}  // namespace
}  // namespace ssdse
