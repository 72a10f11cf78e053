// ReplicaGroup: one logical document partition served by R independent
// SearchSystem replicas, plus the broker-side tail-tolerance policy
// stack (DESIGN.md §15).
//
// Every replica indexes the *same* partition (identical corpus seed, so
// fault-free replicas answer bit-identically — guarded by
// tests/replica_test.cpp) but owns independent device, cache, and fault
// state: per-replica fault seeds make one replica's latency spikes and
// uncorrectable reads uncorrelated with its siblings', which is exactly
// what retries and hedges exploit.
//
// Policy stack, applied per query in serve():
//   1. Health-driven failover — replicas are tried in EWMA-latency
//      order among those whose fault-rate circuit breaker admits
//      traffic (reuses src/cache/circuit_breaker.hpp: open replicas are
//      routed around, half-open ones get probe queries).
//   2. Hedged request — if the primary attempt runs past `hedge_delay`,
//      a second replica is dispatched and the broker takes the first
//      completion (min(primary, hedge_delay + hedge)).
//   3. Retry with capped exponential backoff + jitter — attempts whose
//      reply is fault-classified (uncorrectable reads / write failures
//      observed during the attempt, or shard-deadline expiry) are
//      retried on the next replica in health order until the retry
//      budget is spent.
//   4. Honest accounting — if the final attempt is still past the
//      deadline the group reply is flagged not-ok and the broker drops
//      it from the merge as a *failed* shard; partial coverage is
//      reported, never silently patched.
//
// All time is simulated Micros: failed-attempt waits, backoff pauses,
// and hedge delays are charged into the group response exactly like
// network_rtt is at the broker.
//
// Determinism contract: with ReplicationConfig::active() == false the
// group is a pass-through — serve() executes replica 0 on the exact
// pre-replication code path and the policy Rng is never drawn (the
// jitter stream only advances on an actual retry), so R=1 policy-off
// runs reproduce all pinned fingerprints bit-for-bit. Policy-on runs
// are seed-deterministic: same config, same stream => same replies.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/cache/circuit_breaker.hpp"
#include "src/hybrid/search_system.hpp"
#include "src/storage/fault.hpp"
#include "src/util/rng.hpp"

namespace ssdse {

/// Broker tail-tolerance knobs (per cluster; every group applies the
/// same policy with its own policy-Rng stream).
struct ReplicationConfig {
  /// Replicas per logical shard. 1 = no replication.
  std::uint32_t replication_factor = 1;
  /// Extra attempts after the first (0 = retries off).
  std::uint32_t retry_budget = 0;
  /// First backoff pause; pause k is min(cap, base * 2^k), plus jitter.
  Micros retry_backoff_base = micros(500);
  Micros retry_backoff_cap = micros(8'000);
  /// Uniform jitter fraction: each pause is scaled by a factor drawn
  /// from [1, 1 + retry_jitter). 0 disables the draw entirely.
  double retry_jitter = 0.25;
  /// Dispatch a hedge to a second replica once the primary attempt runs
  /// past this (simulated µs). 0 = hedging off. Needs R >= 2.
  Micros hedge_delay = micros(0);
  /// Health-driven failover: order replicas by EWMA latency among those
  /// whose circuit breaker admits traffic; replicas without a warm-up
  /// sample rank after warmed ones. Off = fixed order (replica 0 is
  /// always primary).
  bool failover = false;
  /// EWMA smoothing factor for per-replica latency health.
  double health_alpha = 0.2;
  /// Per-replica fault-rate breaker (record(ok) per attempt; open
  /// replicas are bypassed, half-open ones probed).
  CircuitBreakerConfig breaker;
  /// Base seed for the per-group policy Rng (jitter draws only).
  std::uint64_t seed = 0x4e7'c0deull;

  /// True when any policy can alter the pre-replication behavior.
  [[nodiscard]] bool active() const {
    return replication_factor > 1 || retry_budget > 0 ||
           hedge_delay > Micros{} ||
           failover;
  }

  /// Deterministic (pre-jitter) backoff pause before retry `k` (0-based).
  [[nodiscard]] Micros backoff_at(std::uint32_t k) const {
    Micros pause = retry_backoff_base;
    for (std::uint32_t i = 0; i < k; ++i) {
      pause *= 2;
      if (pause >= retry_backoff_cap) return retry_backoff_cap;
    }
    return std::min(pause, retry_backoff_cap);
  }
};

/// One group's answer as seen by the broker merge.
struct GroupReply {
  Micros response = micros(0);   // full group service: attempts + backoff + hedge
  Micros noticed = micros(0);    // when the broker stopped waiting (== response
                         // when ok; elapsed + deadline when it gave up)
  bool ok = true;        // include in the merge (final attempt on time)
  bool faulted = false;  // final attempt was fault-classified
  Situation situation = Situation::kS1_ResultMemory;
  std::vector<ScoredDoc> docs;
  std::uint32_t retries = 0;
  std::uint32_t hedges = 0;
  std::uint32_t hedge_wins = 0;
  std::uint32_t failovers = 0;      // 1 iff the first try was not replica 0
  std::uint64_t observed_faults = 0;  // fault-counter deltas this query
  Micros backoff_us = micros(0);            // jittered pauses charged this query
  /// Broker-side time in `response` beyond the final attempt's own
  /// service: failed attempts, backoff pauses and, when the hedge won,
  /// the hedge delay.
  Micros overhead = micros(0);
  /// The winning attempt's trace on its replica (nullptr with tracing
  /// off); that replica's next traced query overwrites it.
  const telemetry::QueryTrace* trace = nullptr;
};

class ReplicaGroup {
 public:
  /// `partition_cfg` is the fully-resolved shard config (corpus seed
  /// already selects the partition — replicas share it). Replica r > 0
  /// gets decorrelated fault seeds; `hdd_overrides[r]`, when set,
  /// replaces the HDD fault plan of that replica outright.
  ReplicaGroup(const SystemConfig& partition_cfg,
               const ReplicationConfig& rep, Micros shard_deadline,
               std::uint64_t policy_seed,
               const std::vector<std::optional<FaultPlan>>& hdd_overrides = {});

  /// Serve one query through the policy stack (see file header).
  GroupReply serve(const Query& q);

  [[nodiscard]] std::size_t num_replicas() const { return replicas_.size(); }
  SearchSystem& replica(std::size_t r) { return *replicas_[r]; }
  [[nodiscard]] const SearchSystem& replica(std::size_t r) const {
    return *replicas_[r];
  }

  /// Per-replica health + bookkeeping (broker side).
  struct ReplicaState {
    Micros ewma_us{};
    bool warmed = false;  // ewma_us holds at least one sample
    std::uint64_t attempts = 0;
    std::uint64_t faults = 0;  // fault-classified attempts
    CircuitBreaker breaker;
    explicit ReplicaState(const CircuitBreakerConfig& cfg) : breaker(cfg) {}
  };
  [[nodiscard]] const ReplicaState& state(std::size_t r) const {
    return states_[r];
  }

  // Group-side totals the broker pulls at snapshot time. Retries,
  // hedges, hedge wins and failovers have one count, the broker's
  // (cluster.broker.*), summed from the per-query replies.
  /// Replica attempts, retries and hedges included.
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }
  /// Policy-path requests whose first replica differs from the previous
  /// request's (the group's first request compares against replica 0).
  /// At most twice the group's failed-over requests: each change starts
  /// a request on a non-primary replica or ends a run of them.
  [[nodiscard]] std::uint64_t routing_changes() const {
    return routing_changes_;
  }
  [[nodiscard]] std::uint64_t observed_faults() const {
    return observed_faults_;
  }
  [[nodiscard]] const ReplicationConfig& replication() const { return rep_; }

 private:
  /// Fault counters the broker can observe around an attempt:
  /// uncorrectable reads surfaced by the cache tiers plus index-store
  /// write failures. Latency spikes are not errors — the deadline
  /// classifies those.
  struct FaultCounters {
    std::uint64_t uncorrectable = 0;
    std::uint64_t write_fails = 0;
  };
  static FaultCounters fault_counters(const SearchSystem& sys);

  /// One attempt on one replica: execute, observe fault deltas, update
  /// health + breaker.
  struct Attempt {
    Micros t = micros(0);
    bool faulted = false;
    Situation situation = Situation::kS1_ResultMemory;
    std::vector<ScoredDoc> docs;
    const telemetry::QueryTrace* trace = nullptr;
  };
  Attempt run_attempt(std::size_t r, const Query& q);

  /// Replica try-order for this query (failover: breaker-admitted
  /// first, then warmed replicas by EWMA ascending, then unwarmed ones
  /// in index order; otherwise fixed 0..R-1). Unwarmed replicas rank
  /// last, not first — a zero EWMA is "no data", not "fastest".
  void pick_order(std::vector<std::size_t>& order);

  ReplicationConfig rep_;
  Micros deadline_ = micros(0);
  // The partition's index, built once and read by every replica (the
  // analytic index is immutable once built). Declared before replicas_,
  // so it outlives them.
  std::unique_ptr<AnalyticIndex> index_;
  std::vector<std::unique_ptr<SearchSystem>> replicas_;
  std::vector<ReplicaState> states_;
  Rng rng_;  // jitter draws only; never advanced unless a retry fires

  std::uint64_t dispatches_ = 0;
  std::uint64_t routing_changes_ = 0;
  std::size_t last_first_ = 0;  // first replica of the previous request
  std::uint64_t observed_faults_ = 0;
  std::vector<std::size_t> order_scratch_;
  std::vector<char> admitted_;  // pick_order's breaker verdicts
};

}  // namespace ssdse
