// SearchCluster: document-partitioned scale-out, the deployment shape
// the paper's introduction assumes ("large search engines need to
// process hundreds of queries per second ... massively parallel
// processing"). A broker broadcasts each query to every logical shard
// — a ReplicaGroup of R independent SearchSystem replicas over the
// same document partition (DESIGN.md §15) — and merges the per-shard
// top-K. The broker's tail-tolerance policy stack (retries with capped
// backoff + jitter, hedged requests, health-driven failover, honest
// partial-coverage accounting) lives in src/hybrid/replica_group.hpp.
//
// Timing model: shards serve the query in parallel, so the broker sees
// max(group response) plus one network round trip and a per-shard merge
// cost; retry waits, backoff pauses, and hedge delays are inside the
// group response. Shard documents are disjoint: shard-local doc d on
// shard s is global doc d * num_shards + s.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/hybrid/replica_group.hpp"
#include "src/hybrid/search_system.hpp"

namespace ssdse {

/// Per-replica HDD fault-plan override: replica `replica` of shard
/// `shard` gets `hdd` instead of the template plan. This is how a
/// bench injects one sick or slow replica without arming the rest of
/// the fleet.
struct ReplicaFaultOverride {
  std::uint32_t shard = 0;
  std::uint32_t replica = 0;
  FaultPlan hdd;
};

struct ClusterConfig {
  std::uint32_t num_shards = 4;
  /// Per-cluster totals; each shard gets num_docs / num_shards documents
  /// and the full cache configuration of `shard_template`.
  std::uint64_t total_docs = 4'000'000;
  SystemConfig shard_template;
  Micros network_rtt = micros(300);           // broker <-> shard, one hop each way
  Micros merge_cpu_per_shard = micros(25);    // top-K heap merge per shard result
  /// Per-shard soft deadline at the broker (simulated µs). Shards whose
  /// service time exceeds it are dropped from the merge: the broker
  /// stops waiting at the deadline and returns partial coverage
  /// (graceful degradation, DESIGN.md §10). With retries enabled a
  /// deadline expiry is retried before the shard is given up on. 0 =
  /// wait for every shard.
  Micros shard_deadline = micros(0);
  /// Replication + broker tail-tolerance policies (DESIGN.md §15).
  /// Defaults keep it entirely off: R=1, no retries, no hedging, no
  /// failover — the exact pre-replication broker.
  ReplicationConfig replication;
  /// Targeted fault injection for benches/tests (see above).
  std::vector<ReplicaFaultOverride> replica_faults;
};

/// Point-in-time view of the replication policy stack for run reports
/// (`replication` section) and bench gates.
struct ReplicationSnapshot {
  std::uint32_t groups = 0;
  std::uint32_t replication_factor = 1;
  bool policy_active = false;
  std::uint64_t queries = 0;
  std::uint64_t dispatches = 0;  // replica attempts, incl. retries+hedges
  std::uint64_t retries = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  /// Shard requests whose first attempt went to a replica other than 0
  /// — up to queries x shards, not the number of routing changes.
  std::uint64_t failovers = 0;
  /// Shard requests whose first replica differs from the previous
  /// request's on the same shard: how often routing actually changed.
  std::uint64_t routing_changes = 0;
  std::uint64_t shards_dropped = 0;
  std::uint64_t shards_failed = 0;  // dropped with a fault-classified reply
  std::uint64_t observed_faults = 0;
  double coverage_mean = 1.0;
  /// Deterministic (pre-jitter) backoff pauses, one per budgeted retry.
  std::vector<Micros> backoff_schedule;
  struct Slot {  // per replica index, aggregated across groups
    std::uint64_t attempts = 0;
    std::uint64_t faults = 0;
    std::uint64_t breaker_trips = 0;
    std::uint64_t breaker_reopens = 0;
    std::uint64_t breaker_closes = 0;
    std::uint32_t breakers_open = 0;  // groups whose slot breaker is open
    double ewma_us_mean = 0.0;        // mean EWMA across groups
  };
  std::vector<Slot> slots;
};

/// One broker merge step: fold shard `shard`'s reply, best-first as a
/// shard's result entry always is, into `best`, the running best-first
/// global top-`k`. Shard-local doc d becomes global doc
/// d * num_shards + shard, which keeps the reply's order, so a two-way
/// merge into `scratch` (swapped into `best`) selects what a partial
/// sort of every included reply would, with no re-sort and, once both
/// buffers have grown to k, no allocation.
void merge_shard_reply(std::vector<ScoredDoc>& best,
                       std::span<const ScoredDoc> reply,
                       std::uint32_t shard, std::uint32_t num_shards,
                       std::size_t k, std::vector<ScoredDoc>& scratch);

class SearchCluster {
 public:
  explicit SearchCluster(const ClusterConfig& cfg);

  struct ClusterOutcome {
    Micros response = micros(0);       // broker-observed latency
    Micros slowest_shard = micros(0);  // max per-group service time (incl. late)
    std::uint32_t shards_included = 0;  // answered within the deadline
    std::uint32_t shards_dropped = 0;   // late, excluded from the merge
    std::uint32_t shards_failed = 0;    // dropped with faults after retries
    std::uint32_t retries = 0;          // extra attempts this query
    std::uint32_t hedges = 0;
    std::uint32_t hedge_wins = 0;
    std::uint32_t failovers = 0;        // groups whose first try was not replica 0
    double coverage = 1.0;     // shards_included / num_shards
    ResultEntry result;        // merged global top-K (included shards)
    /// Tail attribution: the trace of the slowest included group's
    /// winning attempt; nullptr when no group was included or that
    /// replica's tracing is off. Its replica's next traced query
    /// overwrites it.
    const telemetry::QueryTrace* trace = nullptr;
  };

  /// Broadcast one query: serve it on each group in shard order and
  /// fold each reply into the merge as it arrives (deadline/failure
  /// filtering, global top-K, response-time assembly, metrics).
  ClusterOutcome execute(const Query& q);
  void run(std::uint64_t n);

  [[nodiscard]] std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(groups_.size());
  }
  /// Primary replica of shard i (the only replica when R=1).
  SearchSystem& shard(std::size_t i) { return groups_[i]->replica(0); }
  ReplicaGroup& group(std::size_t i) { return *groups_[i]; }
  [[nodiscard]] const ReplicaGroup& group(std::size_t i) const {
    return *groups_[i];
  }
  [[nodiscard]] const RunMetrics& metrics() const { return metrics_; }

  /// Fleet-wide telemetry: every replica's registry snapshot merged
  /// (counters sum, gauges become per-shard sample distributions,
  /// histograms merge bucket-wise), plus the broker registry.
  [[nodiscard]] telemetry::RegistrySnapshot telemetry_snapshot() const;

  /// Cluster throughput: every shard must execute every query
  /// (broadcast), so the fleet saturates at the *slowest* replica's
  /// aggregate work rate.
  [[nodiscard]] double throughput_qps() const;

  /// Shared query generator (shards see the same broadcast stream).
  QueryLogGenerator& generator() { return *gen_; }

  /// Broker-side tracing (kBrokerMerge / kBrokerRetry spans) and
  /// counters (cluster.broker.*, cluster.shards.*, cluster.replica.*).
  [[nodiscard]] const telemetry::QueryTracer& broker_tracer() const {
    return broker_tracer_;
  }
  [[nodiscard]] const telemetry::MetricsRegistry& broker_registry() const {
    return broker_registry_;
  }

  /// Replication policy state for reports + gates (DESIGN.md §15).
  [[nodiscard]] ReplicationSnapshot replication_snapshot() const;

 private:
  ClusterConfig cfg_;
  std::vector<std::unique_ptr<ReplicaGroup>> groups_;
  std::unique_ptr<QueryLogGenerator> gen_;
  RunMetrics metrics_;

  telemetry::QueryTracer broker_tracer_;
  telemetry::MetricsRegistry broker_registry_;
  std::uint64_t broker_queries_ = 0;
  std::uint64_t shards_dropped_total_ = 0;
  std::uint64_t shards_failed_total_ = 0;
  std::uint64_t retries_total_ = 0;
  std::uint64_t hedges_total_ = 0;
  std::uint64_t hedge_wins_total_ = 0;
  std::uint64_t failovers_total_ = 0;
  std::uint64_t backoff_us_total_ = 0;
  std::uint64_t coverage_ppm_sum_ = 0;  // per-query coverage, ppm
  // Broker merge buffers (merge_shard_reply), reused across queries.
  std::vector<ScoredDoc> merge_best_;
  std::vector<ScoredDoc> merge_scratch_;
};

}  // namespace ssdse
