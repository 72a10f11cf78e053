// ReplicaGroup + broker tail-tolerance policy tests (DESIGN.md §15):
// replica divergence guard, backoff schedule, policy inertness under
// zero faults, retry/hedge/failover behavior, and honest accounting.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/hybrid/cluster.hpp"
#include "src/hybrid/traffic.hpp"

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

/// Median slowest-shard time over a short probe run: a deadline that
/// provably drops some-but-not-all replies (the simulation is
/// deterministic).
Micros calibrated_deadline(std::uint32_t shards) {
  SearchCluster probe(small_cluster(shards));
  std::vector<Micros> slowest;
  for (int i = 0; i < 60; ++i) {
    slowest.push_back(probe.execute(probe.generator().next()).slowest_shard);
  }
  std::nth_element(slowest.begin(), slowest.begin() + slowest.size() / 2,
                   slowest.end());
  return slowest[slowest.size() / 2];
}

/// Shard-side ground truth for the broker's observed_faults books:
/// uncorrectable reads surfaced by the cache tiers plus index-store
/// write failures, summed over every replica of every group.
std::uint64_t shard_side_faults(const SearchCluster& cluster) {
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < cluster.num_shards(); ++s) {
    const ReplicaGroup& g = cluster.group(s);
    for (std::size_t r = 0; r < g.num_replicas(); ++r) {
      const auto& cs = g.replica(r).cache_manager().stats();
      total += cs.ssd_read_errors + cs.hdd_read_errors;
      if (const FaultyDevice* hdd = g.replica(r).faulty_hdd()) {
        total += hdd->fault_stats().write_fails;
      }
    }
  }
  return total;
}

// --- Replica divergence guard (regression) -----------------------------

// Two fault-free replicas of the same partition must answer the full
// fixed workload bit-identically: replicas share the corpus seed and
// differ only in (undrawn) fault seeds, so any divergence means replica
// construction leaked state it should not have.
TEST(ReplicaTest, FaultFreeReplicasAnswerBitIdentically) {
  ClusterConfig cfg = small_cluster(1);
  cfg.replication.replication_factor = 2;
  SearchCluster cluster(cfg);
  ReplicaGroup& g = cluster.group(0);
  ASSERT_EQ(g.num_replicas(), 2u);
  for (int i = 0; i < 400; ++i) {
    const Query q = cluster.generator().next();
    const auto a = g.replica(0).execute(q);
    const auto b = g.replica(1).execute(q);
    ASSERT_DOUBLE_EQ(a.response.value(), b.response.value()) << "query " << i;
    ASSERT_EQ(a.situation, b.situation) << "query " << i;
    ASSERT_EQ(a.result.docs.size(), b.result.docs.size()) << "query " << i;
    for (std::size_t d = 0; d < a.result.docs.size(); ++d) {
      ASSERT_EQ(a.result.docs[d].doc, b.result.docs[d].doc);
      ASSERT_DOUBLE_EQ(a.result.docs[d].score, b.result.docs[d].score);
    }
  }
}

// --- Backoff schedule --------------------------------------------------

TEST(ReplicaTest, BackoffScheduleIsCappedExponentialAndMonotone) {
  ReplicationConfig rep;
  rep.retry_backoff_base = micros(500);
  rep.retry_backoff_cap = micros(8'000);
  EXPECT_DOUBLE_EQ(rep.backoff_at(0).value(), 500);
  EXPECT_DOUBLE_EQ(rep.backoff_at(1).value(), 1'000);
  EXPECT_DOUBLE_EQ(rep.backoff_at(2).value(), 2'000);
  EXPECT_DOUBLE_EQ(rep.backoff_at(3).value(), 4'000);
  EXPECT_DOUBLE_EQ(rep.backoff_at(4).value(), 8'000);
  EXPECT_DOUBLE_EQ(rep.backoff_at(5).value(), 8'000);  // capped, stays capped
  for (std::uint32_t k = 1; k < 12; ++k) {
    EXPECT_GE(rep.backoff_at(k), rep.backoff_at(k - 1));
    EXPECT_LE(rep.backoff_at(k), rep.retry_backoff_cap);
  }
  // Cap not on the doubling grid: clamps rather than overshoots.
  rep.retry_backoff_base = micros(300);
  rep.retry_backoff_cap = micros(1'000);
  EXPECT_DOUBLE_EQ(rep.backoff_at(1).value(), 600);
  EXPECT_DOUBLE_EQ(rep.backoff_at(2).value(), 1'000);
}

TEST(ReplicaTest, InvalidConfigsRejected) {
  ClusterConfig cfg = small_cluster(1);
  cfg.replication.replication_factor = 0;
  EXPECT_THROW(SearchCluster{cfg}, std::invalid_argument);
  cfg.replication.replication_factor = 1;
  cfg.replication.health_alpha = 0.0;
  EXPECT_THROW(SearchCluster{cfg}, std::invalid_argument);
}

// --- Zero-fault inertness ---------------------------------------------

// With the policy stack armed but nothing to trigger it (no faults, no
// deadline, hedge delay far above any response), an R=2 cluster must
// reproduce the R=1 run exactly: the policy path may not perturb
// responses, and no retry/hedge/failover may fire.
TEST(ReplicaTest, IdlePolicyStackMatchesPrimaryOnlyRun) {
  SearchCluster baseline(small_cluster(2));
  ClusterConfig cfg = small_cluster(2);
  cfg.replication.replication_factor = 2;
  cfg.replication.retry_budget = 2;
  cfg.replication.hedge_delay = sec(1'000);  // never reached
  SearchCluster replicated(cfg);

  baseline.run(400);
  replicated.run(400);
  EXPECT_DOUBLE_EQ(baseline.metrics().mean_response().value(),
                   replicated.metrics().mean_response().value());
  EXPECT_DOUBLE_EQ(baseline.metrics().total_response_time().value(),
                   replicated.metrics().total_response_time().value());
  EXPECT_DOUBLE_EQ(baseline.replication_snapshot().coverage_mean,
                   replicated.replication_snapshot().coverage_mean);
  for (std::size_t i = 0; i < kNumSituations; ++i) {
    const auto s = static_cast<Situation>(i);
    EXPECT_EQ(baseline.metrics().situation_count(s),
              replicated.metrics().situation_count(s))
        << to_string(s);
  }

  const auto snap = replicated.replication_snapshot();
  EXPECT_TRUE(snap.policy_active);
  EXPECT_EQ(snap.replication_factor, 2u);
  EXPECT_EQ(snap.retries, 0u);
  EXPECT_EQ(snap.hedges, 0u);
  EXPECT_EQ(snap.failovers, 0u);
  EXPECT_EQ(snap.dispatches, snap.queries * replicated.num_shards());
  ASSERT_EQ(snap.slots.size(), 2u);
  EXPECT_EQ(snap.slots[1].attempts, 0u);  // secondary never touched
}

// --- Retries restore coverage -----------------------------------------

// The shard-deadline path drops slow shards; a retry re-executes the
// query on the (now result-cached) replica well inside the deadline, so
// the retry budget converts dropped shards back into full coverage.
TEST(ReplicaTest, RetriesRestoreFullCoverageUnderDeadline) {
  const Micros deadline = calibrated_deadline(2);
  ASSERT_GT(deadline.value(), 0.0);

  ClusterConfig base = small_cluster(2);
  base.shard_deadline = deadline;
  SearchCluster no_retry(base);
  no_retry.run(300);
  EXPECT_LT(no_retry.replication_snapshot().coverage_mean, 1.0);

  ClusterConfig cfg = base;
  cfg.replication.retry_budget = 2;  // R stays 1: retry the same replica
  SearchCluster with_retry(cfg);
  with_retry.run(300);
  const auto snap = with_retry.replication_snapshot();
  EXPECT_DOUBLE_EQ(snap.coverage_mean, 1.0);
  EXPECT_GT(snap.retries, 0u);
  EXPECT_EQ(snap.shards_dropped, 0u);
  EXPECT_EQ(snap.shards_failed, 0u);
  // Every retry paid a backoff pause: the schedule is visible in the
  // snapshot and each pause respects the cap.
  ASSERT_EQ(snap.backoff_schedule.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.backoff_schedule[0].value(),
                   cfg.replication.backoff_at(0).value());
  EXPECT_DOUBLE_EQ(snap.backoff_schedule[1].value(),
                   cfg.replication.backoff_at(1).value());
}

// Retried-and-included replies still charge their full wait: the broker
// response includes the failed attempt plus the backoff pause, so the
// coverage win is paid for in latency, not hidden.
TEST(ReplicaTest, RetryChargesWaitAndBackoffIntoResponse) {
  const Micros deadline = calibrated_deadline(1);
  ClusterConfig cfg = small_cluster(1);
  cfg.shard_deadline = deadline;
  cfg.replication.retry_budget = 1;
  SearchCluster cluster(cfg);
  bool saw_retry = false;
  for (int i = 0; i < 200 && !saw_retry; ++i) {
    const auto out = cluster.execute(cluster.generator().next());
    if (out.retries > 0) {
      saw_retry = true;
      // Wait = deadline (noticed) + backoff + retry attempt, plus
      // network/merge; strictly above the deadline alone.
      EXPECT_GT(out.response,
                deadline + cfg.replication.backoff_at(0) + cfg.network_rtt);
      EXPECT_DOUBLE_EQ(out.coverage, 1.0);
    }
  }
  EXPECT_TRUE(saw_retry);
}

// --- Hedged requests ---------------------------------------------------

// A slow (latency-spiking) primary with a clean sibling: hedges fire on
// spiked queries, the sibling's fast answer wins, and the broker mean
// improves over the unhedged run of the same sick fleet.
TEST(ReplicaTest, HedgeTakesFirstCompletionAndCutsLatency) {
  ClusterConfig cfg = small_cluster(1);
  cfg.replication.replication_factor = 2;
  ReplicaFaultOverride slow;
  slow.shard = 0;
  slow.replica = 0;
  slow.hdd.latency_spike_rate = 0.3;
  slow.hdd.spike_latency = ms(50);
  cfg.replica_faults.push_back(slow);

  SearchCluster unhedged(cfg);
  unhedged.run(400);

  cfg.replication.hedge_delay = ms(25);  // below the spike, above normal
  SearchCluster hedged(cfg);
  hedged.run(400);

  const auto snap = hedged.replication_snapshot();
  EXPECT_GT(snap.hedges, 0u);
  EXPECT_GT(snap.hedge_wins, 0u);
  EXPECT_LE(snap.hedge_wins, snap.hedges);
  EXPECT_LE(snap.retries + snap.hedges, snap.dispatches);
  EXPECT_LT(hedged.metrics().mean_response(),
            unhedged.metrics().mean_response());
}

// A winning hedge's delay is broker overhead: it lands in the broker's
// broker_retry span, and the winning replica's own trace covers only
// the hedge's service. The response is the delay plus that service.
TEST(ReplicaTest, HedgeWinChargesTheDelayToBrokerRetry) {
  ClusterConfig cfg = small_cluster(1);
  cfg.replication.replication_factor = 2;
  cfg.replication.hedge_delay = ms(25);
  ReplicaFaultOverride slow;
  slow.shard = 0;
  slow.replica = 0;
  slow.hdd.latency_spike_rate = 0.3;
  slow.hdd.spike_latency = ms(50);
  cfg.replica_faults.push_back(slow);
  SearchCluster cluster(cfg);

  const auto retry = telemetry::TraceStage::kBrokerRetry;
  std::uint32_t wins = 0;
  for (int i = 0; i < 400; ++i) {
    const auto out = cluster.execute(cluster.generator().next());
    const telemetry::QueryTrace* broker = cluster.broker_tracer().last();
    ASSERT_NE(broker, nullptr);
    const auto span = broker->stage_us[static_cast<std::size_t>(retry)];
    if (out.hedge_wins == 0) {
      // No retries configured: nothing else is broker overhead.
      EXPECT_FALSE(broker->touched_stage(retry)) << "query " << i;
      continue;
    }
    ++wins;
    ASSERT_TRUE(broker->touched_stage(retry)) << "query " << i;
    EXPECT_EQ(span, cfg.replication.hedge_delay) << "query " << i;
    ASSERT_NE(out.trace, nullptr);
    EXPECT_EQ(out.slowest_shard, cfg.replication.hedge_delay + out.trace->total)
        << "query " << i;
  }
  EXPECT_GT(wins, 0u);
}

// --- Health-driven failover -------------------------------------------

// A fault-heavy primary trips its circuit breaker; the broker routes
// around it and the healthy sibling absorbs the traffic.
TEST(ReplicaTest, FailoverRoutesAroundSickPrimary) {
  ClusterConfig cfg = small_cluster(1);
  cfg.replication.replication_factor = 2;
  cfg.replication.failover = true;
  ReplicaFaultOverride sick;
  sick.shard = 0;
  sick.replica = 0;
  sick.hdd.read_unc_rate = 0.5;
  cfg.replica_faults.push_back(sick);

  SearchCluster cluster(cfg);
  cluster.run(500);

  const auto snap = cluster.replication_snapshot();
  EXPECT_GT(snap.failovers, 0u);
  // Every routing change starts or ends a run of failed-over requests.
  EXPECT_GT(snap.routing_changes, 0u);
  EXPECT_LE(snap.routing_changes, 2 * snap.failovers);
  ASSERT_EQ(snap.slots.size(), 2u);
  EXPECT_GT(snap.slots[0].faults, 0u);
  EXPECT_EQ(snap.slots[1].faults, 0u);
  EXPECT_GT(snap.slots[1].attempts, snap.slots[0].attempts);
  // Degraded-but-correct: faults never cost coverage here — no
  // deadline means every reply is on time and included.
  EXPECT_DOUBLE_EQ(snap.coverage_mean, 1.0);
}

// Regression: unwarmed replicas used to sort *first* in the EWMA
// try-order — a zero-initialized EWMA read as "fastest" — so on a
// perfectly healthy cluster every cold sibling stole the primary slot
// once, ping-ponging the order and inflating cluster.broker.failovers
// during warm-up. A clean, warmed cluster with failover armed must
// report zero failovers and zero routing changes, never touch the
// siblings, and reproduce the primary-only run exactly.
TEST(ReplicaTest, WarmupDoesNotCountAsFailoverOnHealthyCluster) {
  SearchCluster baseline(small_cluster(1));
  ClusterConfig cfg = small_cluster(1);
  cfg.replication.replication_factor = 3;
  cfg.replication.failover = true;
  SearchCluster cluster(cfg);

  baseline.run(400);
  cluster.run(400);

  const auto snap = cluster.replication_snapshot();
  EXPECT_EQ(snap.failovers, 0u);
  EXPECT_EQ(snap.routing_changes, 0u);
  EXPECT_EQ(snap.retries, 0u);
  ASSERT_EQ(snap.slots.size(), 3u);
  EXPECT_EQ(snap.slots[1].attempts, 0u);  // siblings never promoted
  EXPECT_EQ(snap.slots[2].attempts, 0u);
  EXPECT_DOUBLE_EQ(baseline.metrics().mean_response().value(),
                   cluster.metrics().mean_response().value());
  EXPECT_DOUBLE_EQ(baseline.metrics().total_response_time().value(),
                   cluster.metrics().total_response_time().value());
}

// --- Tail attribution ---------------------------------------------------

// The trace a cluster traffic target reports must come from a replica
// that ran this query. With failover routing around a spiky primary,
// that primary sits idle for most queries, and its last trace, which
// belongs to an older query, often has the largest total.
TEST(ReplicaTest, TailTraceComesFromAReplicaThatServedTheQuery) {
  ClusterConfig cfg = small_cluster(2);
  cfg.replication.replication_factor = 2;
  cfg.replication.hedge_delay = ms(20);
  cfg.replication.failover = true;
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    ReplicaFaultOverride spiky;
    spiky.shard = s;
    spiky.replica = 0;
    spiky.hdd.latency_spike_rate = 0.2;
    cfg.replica_faults.push_back(spiky);
  }
  SearchCluster cluster(cfg);
  ClusterTrafficTarget target(cluster);
  std::uint64_t foreign = 0;
  for (int i = 0; i < 3000; ++i) {
    const Query q = cluster.generator().next();
    (void)target.serve(q);
    const telemetry::QueryTrace* t = target.last_trace();
    ASSERT_NE(t, nullptr);
    if (t->query != q.id) ++foreign;
  }
  EXPECT_EQ(foreign, 0u);
  EXPECT_GT(cluster.replication_snapshot().failovers, 0u);
}

// --- Honest accounting -------------------------------------------------

// An unmeetable deadline: even retries land late, so the broker reports
// zero coverage and an empty merge instead of inventing results.
TEST(ReplicaTest, UnmeetableDeadlineReportsZeroCoverage) {
  ClusterConfig cfg = small_cluster(2);
  cfg.shard_deadline = micros(0.5);  // half a microsecond: nothing can answer
  cfg.replication.retry_budget = 1;
  SearchCluster cluster(cfg);
  const auto out = cluster.execute(cluster.generator().next());
  EXPECT_DOUBLE_EQ(out.coverage, 0.0);
  EXPECT_TRUE(out.result.docs.empty());
  EXPECT_EQ(out.shards_included, 0u);
  EXPECT_EQ(out.shards_dropped, cluster.num_shards());
  EXPECT_EQ(out.shards_failed, cluster.num_shards());
  EXPECT_EQ(out.retries, cluster.num_shards());  // budget spent, honestly
}

// Broker-side observed_faults must balance the shard-side fault
// counters exactly: every uncorrectable read and write failure the
// replicas suffered is attributed to some attempt, none double-counted.
TEST(ReplicaTest, ObservedFaultBooksBalanceShardCounters) {
  ClusterConfig cfg = small_cluster(2);
  cfg.replication.replication_factor = 2;
  cfg.replication.failover = true;
  cfg.replication.hedge_delay = ms(25);
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    ReplicaFaultOverride sick;
    sick.shard = s;
    sick.replica = 0;
    sick.hdd.read_unc_rate = 0.1;
    sick.hdd.latency_spike_rate = 0.1;
    sick.hdd.spike_latency = ms(50);
    sick.hdd.seed = 0xace'0fba5eull + s;
    cfg.replica_faults.push_back(sick);
  }
  SearchCluster cluster(cfg);
  cluster.run(400);
  const auto snap = cluster.replication_snapshot();
  EXPECT_GT(snap.observed_faults, 0u);
  EXPECT_EQ(snap.observed_faults, shard_side_faults(cluster));
}

}  // namespace
}  // namespace ssdse
