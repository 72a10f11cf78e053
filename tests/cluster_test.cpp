// SearchCluster (sharded scale-out) tests.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/top_k.hpp"
#include "src/hybrid/cluster.hpp"
#include "src/util/rng.hpp"

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

// --- Broker merge ---------------------------------------------------------

/// The seed broker's merge: every included reply mapped to global ids,
/// then a partial sort of the lot.
std::vector<ScoredDoc> partial_sort_merge(
    const std::vector<std::vector<ScoredDoc>>& replies,
    const std::vector<bool>& included, std::size_t k) {
  const auto shards = static_cast<std::uint32_t>(replies.size());
  std::vector<ScoredDoc> all;
  for (std::uint32_t s = 0; s < shards; ++s) {
    if (!included[s]) continue;
    for (const ScoredDoc& d : replies[s]) {
      all.push_back(ScoredDoc{DocId{d.doc.raw() * shards + s}, d.score});
    }
  }
  const std::size_t n = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n),
                    all.end(), TopKAccumulator::better);
  all.resize(n);
  return all;
}

std::vector<ScoredDoc> broker_merge(
    const std::vector<std::vector<ScoredDoc>>& replies,
    const std::vector<bool>& included, std::size_t k) {
  const auto shards = static_cast<std::uint32_t>(replies.size());
  std::vector<ScoredDoc> best, scratch;
  for (std::uint32_t s = 0; s < shards; ++s) {
    if (included[s]) merge_shard_reply(best, replies[s], s, shards, k, scratch);
  }
  return best;
}

TEST(BrokerMergeTest, MatchesPartialSortOnRandomReplies) {
  Rng rng(2024);
  for (int round = 0; round < 400; ++round) {
    const auto shards = static_cast<std::uint32_t>(1 + rng.next_below(6));
    std::vector<std::vector<ScoredDoc>> replies(shards);
    std::vector<bool> included(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      // A few dozen docs at most, scores from a small set so ties
      // across and within shards are common; some docs twice in one
      // reply at different scores; some replies empty.
      const std::size_t n = rng.next_below(2 * kTopK);
      for (std::size_t i = 0; i < n; ++i) {
        const auto doc = static_cast<std::uint32_t>(rng.next_below(60));
        const auto score = static_cast<float>(rng.next_below(8)) * 0.5f;
        replies[s].push_back(ScoredDoc{DocId{doc}, score});
        if (rng.next_below(10) == 0) {
          replies[s].push_back(ScoredDoc{DocId{doc}, score + 0.25f});
        }
      }
      // Best-first, as every shard's result entry is.
      std::sort(replies[s].begin(), replies[s].end(), TopKAccumulator::better);
      // Dropped shards (late or failed) stay out of the merge.
      included[s] = rng.next_below(5) != 0;
    }
    for (const std::size_t k : {kTopK, std::size_t{7}, std::size_t{1}}) {
      const auto want = partial_sort_merge(replies, included, k);
      const auto got = broker_merge(replies, included, k);
      ASSERT_EQ(got, want) << "round " << round << " k " << k;
    }
  }
}

TEST(BrokerMergeTest, FewerDocsThanKAndEmptyReplies) {
  const std::vector<std::vector<ScoredDoc>> replies = {
      {{DocId{3}, 2.0f}, {DocId{1}, 1.0f}},
      {},
      {{DocId{0}, 2.0f}, {DocId{0}, 1.5f}, {DocId{9}, 1.0f}},
  };
  const std::vector<bool> all = {true, true, true};
  const auto got = broker_merge(replies, all, kTopK);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got, partial_sort_merge(replies, all, kTopK));
  // Equal scores rank by global id: shard 2's doc 0 is global 2, shard
  // 0's doc 3 is global 9.
  EXPECT_EQ(got[0], (ScoredDoc{DocId{2}, 2.0f}));
  EXPECT_EQ(got[1], (ScoredDoc{DocId{9}, 2.0f}));
  EXPECT_TRUE(broker_merge(replies, {false, false, false}, kTopK).empty());
  EXPECT_TRUE(broker_merge(replies, all, 0).empty());
}

// --- SearchCluster ---------------------------------------------------------

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
