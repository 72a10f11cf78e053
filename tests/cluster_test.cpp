// SearchCluster (sharded scale-out) tests.
#include <gtest/gtest.h>

#include "src/hybrid/cluster.hpp"

namespace ssdse {
namespace {

ClusterConfig small_cluster(std::uint32_t shards) {
  ClusterConfig cfg;
  cfg.num_shards = shards;
  cfg.total_docs = 400'000;
  cfg.shard_template.set_memory_budget(4 * MiB);
  cfg.shard_template.training_queries = 500;
  return cfg;
}

TEST(ClusterTest, RejectsZeroShards) {
  EXPECT_THROW(SearchCluster(small_cluster(0)), std::invalid_argument);
}

TEST(ClusterTest, MergesGlobalTopK) {
  SearchCluster cluster(small_cluster(4));
  const auto out = cluster.execute(cluster.generator().next());
  EXPECT_LE(out.result.docs.size(), kTopK);
  EXPECT_FALSE(out.result.docs.empty());
  // Scores descending after the broker merge.
  for (std::size_t i = 1; i < out.result.docs.size(); ++i) {
    EXPECT_GE(out.result.docs[i - 1].score, out.result.docs[i].score);
  }
}

TEST(ClusterTest, GlobalDocIdsDisjointAcrossShards) {
  SearchCluster cluster(small_cluster(4));
  const auto out = cluster.execute(cluster.generator().next());
  // Global ids are shard-striped: id % shards recovers the shard.
  for (const ScoredDoc& d : out.result.docs) {
    EXPECT_LT(d.doc.raw() % 4, 4u);
    EXPECT_LT(d.doc.raw() / 4, 100'000u);  // shard-local space
  }
}

TEST(ClusterTest, ResponseIncludesNetworkAndMerge) {
  ClusterConfig cfg = small_cluster(2);
  cfg.network_rtt = micros(10'000);  // exaggerate to make it visible
  SearchCluster cluster(cfg);
  const auto out = cluster.execute(cluster.generator().next());
  EXPECT_GE(out.response, out.slowest_shard + micros(10'000));
}

TEST(ClusterTest, MoreShardsLowerShardLatency) {
  // Same corpus split across more shards -> smaller per-shard indexes
  // -> faster slowest-shard time (statistically; averaged over a run).
  auto mean_response = [](std::uint32_t shards) {
    SearchCluster cluster(small_cluster(shards));
    cluster.run(600);
    return cluster.metrics().mean_response();
  };
  EXPECT_LT(mean_response(8), mean_response(1) + micros(1'000) /*rtt+merge slack*/);
}

TEST(ClusterTest, RunAccumulatesMetricsAndThroughput) {
  SearchCluster cluster(small_cluster(3));
  cluster.run(500);
  EXPECT_EQ(cluster.metrics().queries(), 500u);
  const auto broker = cluster.broker_registry().snapshot();
  ASSERT_NE(broker.find("cluster.broker.queries"), nullptr);
  EXPECT_EQ(broker.find("cluster.broker.queries")->counter, 500u);
  EXPECT_GT(cluster.throughput_qps(), 0.0);
  // Every shard saw the broadcast.
  for (std::uint32_t s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_EQ(cluster.shard(s).metrics().queries(), 500u);
  }
}

TEST(ClusterTest, BroadcastHitsAllShardCaches) {
  SearchCluster cluster(small_cluster(2));
  const Query q = cluster.generator().query_for_rank(0);
  cluster.execute(q);
  const auto again = cluster.execute(q);
  // Both shards answer repeats from their result caches.
  EXPECT_LE(again.slowest_shard, ms(1));
}

}  // namespace
}  // namespace ssdse
