// Parallel-broker stress coverage: many shards x many queries x shard
// deadlines, asserting run_parallel() stays bit-identical to run() and
// giving TSan a workload with real thread churn (the CI thread-sanitizer
// leg runs this binary; see .github/workflows/ci.yml).
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/hybrid/cluster.hpp"

namespace ssdse {
namespace {

ClusterConfig stress_cluster(std::uint32_t shards,
                             Micros deadline = Micros{}) {
  ClusterConfig cfg;
  cfg.num_shards = shards;
  cfg.total_docs = 400'000;
  cfg.shard_template.set_memory_budget(4 * MiB);
  cfg.shard_template.training_queries = 500;
  cfg.shard_deadline = deadline;
  return cfg;
}

/// A deadline that provably drops some-but-not-all shard replies:
/// the median slowest-shard time over a short calibration run. The
/// simulation is deterministic, so the calibrated value is stable.
Micros calibrated_deadline(std::uint32_t shards) {
  SearchCluster probe(stress_cluster(shards));
  std::vector<Micros> slowest;
  for (int i = 0; i < 60; ++i) {
    slowest.push_back(probe.execute(probe.generator().next()).slowest_shard);
  }
  std::nth_element(slowest.begin(), slowest.begin() + slowest.size() / 2,
                   slowest.end());
  return slowest[slowest.size() / 2];
}

/// Fold the full merged telemetry of both clusters and require exact
/// agreement metric-by-metric. Wall-clock gauges (host build times) are
/// the one legitimate difference between two otherwise identical runs.
void expect_identical_telemetry(const SearchCluster& a,
                                const SearchCluster& b) {
  const auto sa = a.telemetry_snapshot();
  const auto sb = b.telemetry_snapshot();
  ASSERT_EQ(sa.metrics().size(), sb.metrics().size());
  for (std::size_t i = 0; i < sa.metrics().size(); ++i) {
    const auto& ma = sa.metrics()[i];
    const auto& mb = sb.metrics()[i];
    ASSERT_EQ(ma.name, mb.name);
    ASSERT_EQ(ma.kind, mb.kind);
    if (ma.name.find("build_ms") != std::string::npos) continue;
    switch (ma.kind) {
      case telemetry::MetricKind::kCounter:
        EXPECT_EQ(ma.counter, mb.counter) << ma.name;
        break;
      case telemetry::MetricKind::kGauge:
        EXPECT_EQ(ma.gauge.count(), mb.gauge.count()) << ma.name;
        EXPECT_DOUBLE_EQ(ma.gauge.sum(), mb.gauge.sum()) << ma.name;
        break;
      case telemetry::MetricKind::kHistogram:
        EXPECT_EQ(ma.hist.count(), mb.hist.count()) << ma.name;
        EXPECT_DOUBLE_EQ(ma.hist.mean(), mb.hist.mean()) << ma.name;
        break;
    }
  }
}

void expect_identical_runs(const SearchCluster& a, const SearchCluster& b) {
  ASSERT_EQ(a.metrics().queries(), b.metrics().queries());
  EXPECT_DOUBLE_EQ(a.metrics().mean_response().value(), b.metrics().mean_response().value());
  EXPECT_DOUBLE_EQ(a.metrics().total_response_time().value(),
                   b.metrics().total_response_time().value());
  EXPECT_DOUBLE_EQ(a.metrics().request_coverage(),
                   b.metrics().request_coverage());
  for (std::size_t i = 0; i < kNumSituations; ++i) {
    const auto s = static_cast<Situation>(i);
    EXPECT_EQ(a.metrics().situation_count(s), b.metrics().situation_count(s))
        << to_string(s);
  }
  const auto broker_a = a.broker_registry().snapshot();
  const auto broker_b = b.broker_registry().snapshot();
  const auto* da = broker_a.find("cluster.shards.dropped");
  const auto* db = broker_b.find("cluster.shards.dropped");
  ASSERT_NE(da, nullptr);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(da->counter, db->counter);
  expect_identical_telemetry(a, b);
}

// The headline contract: with deadlines dropping roughly half the shard
// replies, the parallel broker still produces exactly the sequential
// result — responses, situation census, drop counters, and the merged
// telemetry of every shard.
TEST(ParallelStressTest, DeadlineRunMatchesSequentialExactly) {
  const Micros deadline = calibrated_deadline(8);
  ASSERT_GT(deadline.value(), 0.0);
  SearchCluster seq(stress_cluster(8, deadline));
  SearchCluster par(stress_cluster(8, deadline));
  seq.run(1200);
  par.run_parallel(1200);
  expect_identical_runs(seq, par);

  // The calibrated deadline must actually have bitten: queries ran with
  // partial coverage on both paths.
  const auto broker = par.broker_registry().snapshot();
  const auto* dropped = broker.find("cluster.shards.dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_GT(dropped->counter, 0u);
}

// Two parallel runs of the same config are bit-identical to each other:
// the parallel path itself introduces no scheduling-dependent state.
TEST(ParallelStressTest, ParallelRunIsSelfDeterministic) {
  const Micros deadline = calibrated_deadline(4);
  SearchCluster a(stress_cluster(4, deadline));
  SearchCluster b(stress_cluster(4, deadline));
  a.run_parallel(800);
  b.run_parallel(800);
  expect_identical_runs(a, b);
}

// Wide fan-out: 16 shard threads replaying concurrently, repeated so
// threads are created and torn down several times. Primarily TSan food;
// the assertions pin the broadcast invariants.
TEST(ParallelStressTest, ManyShardsManyQueriesUnderDeadline) {
  const Micros deadline = calibrated_deadline(16);
  SearchCluster cluster(stress_cluster(16, deadline));
  std::uint64_t total = 0;
  for (int round = 0; round < 3; ++round) {
    cluster.run_parallel(400);
    total += 400;
    ASSERT_EQ(cluster.metrics().queries(), total);
    for (std::uint32_t s = 0; s < cluster.num_shards(); ++s) {
      ASSERT_EQ(cluster.shard(s).metrics().queries(), total);
    }
  }
  EXPECT_GT(cluster.metrics().mean_response().value(), 0.0);
  EXPECT_TRUE(std::isfinite(cluster.metrics().mean_response().value()));
  const auto snap = cluster.telemetry_snapshot();
  const auto broker = cluster.broker_registry().snapshot();
  const auto* queries = broker.find("cluster.broker.queries");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->counter, total);
  EXPECT_FALSE(snap.metrics().empty());
}

// Full policy stack under thread churn: R=2 with retries, hedging, and
// health-driven failover, plus a sick primary replica on every shard so
// all three policies actually fire. run_parallel() must still be
// bit-identical to run() — down to the merged telemetry including the
// broker's retry/hedge/failover counters (all policy state is
// group-confined, so shard threads never share mutable state).
TEST(ParallelStressTest, ReplicatedPolicyRunMatchesSequentialExactly) {
  const Micros deadline = calibrated_deadline(4);
  ASSERT_GT(deadline.value(), 0.0);
  ClusterConfig cfg = stress_cluster(4, deadline);
  cfg.replication.replication_factor = 2;
  cfg.replication.retry_budget = 2;
  cfg.replication.hedge_delay = deadline / 2;
  cfg.replication.failover = true;
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    ReplicaFaultOverride sick;
    sick.shard = s;
    sick.replica = 0;
    sick.hdd.read_unc_rate = 0.02;
    sick.hdd.latency_spike_rate = 0.05;
    sick.hdd.seed = 0xfee1'bad0ull + s;
    cfg.replica_faults.push_back(sick);
  }

  SearchCluster seq(cfg);
  SearchCluster par(cfg);
  seq.run(600);
  par.run_parallel(600);
  expect_identical_runs(seq, par);

  // The config must have exercised the whole stack, and the parallel
  // path must agree on every policy counter, not just the responses.
  const auto broker_seq = seq.broker_registry().snapshot();
  const auto broker_par = par.broker_registry().snapshot();
  for (const char* name :
       {"cluster.broker.retries", "cluster.broker.hedges",
        "cluster.broker.failovers", "cluster.broker.routing_changes",
        "cluster.replica.dispatches",
        "cluster.replica.observed_faults"}) {
    const auto* ms = broker_seq.find(name);
    const auto* mp = broker_par.find(name);
    ASSERT_NE(ms, nullptr) << name;
    ASSERT_NE(mp, nullptr) << name;
    EXPECT_EQ(ms->counter, mp->counter) << name;
    EXPECT_GT(ms->counter, 0u) << name;
  }
  const auto snap_seq = seq.replication_snapshot();
  const auto snap_par = par.replication_snapshot();
  EXPECT_EQ(snap_seq.retries, snap_par.retries);
  EXPECT_EQ(snap_seq.hedges, snap_par.hedges);
  EXPECT_EQ(snap_seq.failovers, snap_par.failovers);
  EXPECT_EQ(snap_seq.routing_changes, snap_par.routing_changes);
  EXPECT_EQ(snap_seq.dispatches, snap_par.dispatches);
  EXPECT_DOUBLE_EQ(snap_seq.coverage_mean, snap_par.coverage_mean);
}

}  // namespace
}  // namespace ssdse
