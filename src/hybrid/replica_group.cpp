#include "src/hybrid/replica_group.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ssdse {

namespace {

// Decorrelation stride for per-replica fault seeds: replicas of one
// partition share the corpus seed (identical documents) but must not
// share fault streams, or a spike on the primary would reproduce on
// the hedge target and tail tolerance would be cosmetic.
constexpr std::uint64_t kReplicaSeedStride = 0x9e37'79b9ull;

}  // namespace

ReplicaGroup::ReplicaGroup(
    const SystemConfig& partition_cfg, const ReplicationConfig& rep,
    Micros shard_deadline, std::uint64_t policy_seed,
    const std::vector<std::optional<FaultPlan>>& hdd_overrides)
    : rep_(rep),
      deadline_(shard_deadline),
      index_(std::make_unique<AnalyticIndex>(partition_cfg.corpus)),
      rng_(policy_seed) {
  if (rep_.replication_factor == 0) {
    throw std::invalid_argument(
        "ReplicaGroup: replication_factor must be positive");
  }
  if (rep_.health_alpha <= 0.0 || rep_.health_alpha > 1.0) {
    throw std::invalid_argument(
        "ReplicaGroup: health_alpha must be in (0, 1]");
  }
  replicas_.reserve(rep_.replication_factor);
  states_.reserve(rep_.replication_factor);
  for (std::uint32_t r = 0; r < rep_.replication_factor; ++r) {
    SystemConfig rcfg = partition_cfg;
    if (r < hdd_overrides.size() && hdd_overrides[r].has_value()) {
      rcfg.hdd_faults = *hdd_overrides[r];
    }
    if (r > 0) {
      // Same partition, independent failure domains: only the fault
      // seeds differ, so fault-free replicas stay bit-identical
      // (replica divergence guard in tests/replica_test.cpp).
      rcfg.hdd_faults.seed += kReplicaSeedStride * r;
      rcfg.cache_ssd.nand.fault.seed += kReplicaSeedStride * r;
      if (!rcfg.recovery.dir.empty()) {
        rcfg.recovery.dir += ".r" + std::to_string(r);
      }
    }
    replicas_.push_back(std::make_unique<SearchSystem>(rcfg, *index_));
    states_.emplace_back(rep_.breaker);
  }
  admitted_.resize(replicas_.size());
}

ReplicaGroup::FaultCounters ReplicaGroup::fault_counters(
    const SearchSystem& sys) {
  const auto& cs = sys.cache_manager().stats();
  FaultCounters c;
  c.uncorrectable = cs.ssd_read_errors + cs.hdd_read_errors;
  if (const FaultyDevice* hdd = sys.faulty_hdd()) {
    c.write_fails = hdd->fault_stats().write_fails;
  }
  return c;
}

ReplicaGroup::Attempt ReplicaGroup::run_attempt(std::size_t r,
                                                const Query& q) {
  SearchSystem& sys = *replicas_[r];
  const FaultCounters before = fault_counters(sys);
  auto out = sys.execute(q);
  const FaultCounters after = fault_counters(sys);
  const std::uint64_t events =
      (after.uncorrectable - before.uncorrectable) +
      (after.write_fails - before.write_fails);
  observed_faults_ += events;
  ++dispatches_;

  Attempt a;
  a.t = out.response;
  a.situation = out.situation;
  a.docs = std::move(out.result.docs);
  a.trace = out.trace;
  a.faulted = events > 0 || (deadline_ > Micros{} && a.t > deadline_);

  ReplicaState& st = states_[r];
  ++st.attempts;
  if (a.faulted) ++st.faults;
  st.ewma_us = st.warmed
                   ? rep_.health_alpha * a.t +
                         (1.0 - rep_.health_alpha) * st.ewma_us
                   : a.t;
  st.warmed = true;
  st.breaker.record(!a.faulted);
  return a;
}

void ReplicaGroup::pick_order(std::vector<std::size_t>& order) {
  order.resize(replicas_.size());
  for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
  if (!rep_.failover) return;
  // Breaker-admitted replicas first (allow() advances the open-state
  // cooldown and lets half-open replicas take probe traffic), then
  // *warmed* replicas by EWMA latency ascending, then unwarmed ones in
  // index order. An unwarmed replica has no health sample — its
  // zero-initialized EWMA must not read as "fastest", or every cold
  // sibling would steal the primary slot once, ping-ponging the order
  // and counting a failover per warm-up on a perfectly healthy cluster.
  // Open replicas stay in the order as a last resort: with every
  // breaker open the primary still answers — honest accounting happens
  // at the merge, not by refusing to serve.
  for (std::size_t r = 0; r < order.size(); ++r) {
    admitted_[r] = states_[r].breaker.allow() ? 1 : 0;
  }
  const auto ahead = [&](std::size_t a, std::size_t b) {
    if (admitted_[a] != admitted_[b]) return admitted_[a] > admitted_[b];
    if (states_[a].warmed != states_[b].warmed) return states_[a].warmed;
    if (!states_[a].warmed) return false;  // keep index order
    return states_[a].ewma_us < states_[b].ewma_us;
  };
  // Stable insertion sort: a group holds a handful of replicas, so a
  // stable_sort merge buffer would be an allocation per query for nothing.
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t r = order[i];
    std::size_t j = i;
    for (; j > 0 && ahead(r, order[j - 1]); --j) order[j] = order[j - 1];
    order[j] = r;
  }
}

GroupReply ReplicaGroup::serve(const Query& q) {
  if (!rep_.active()) {
    // Pass-through: the exact pre-replication shard path. No ordering,
    // no health updates beyond fault observation, zero policy-Rng
    // draws — R=1 policy-off runs stay bit-identical to the seed.
    SearchSystem& sys = *replicas_[0];
    const FaultCounters before = fault_counters(sys);
    auto out = sys.execute(q);
    const FaultCounters after = fault_counters(sys);
    const std::uint64_t events =
        (after.uncorrectable - before.uncorrectable) +
        (after.write_fails - before.write_fails);
    observed_faults_ += events;
    ++dispatches_;
    GroupReply reply;
    reply.response = out.response;
    reply.noticed = out.response;
    reply.situation = out.situation;
    reply.faulted = events > 0;
    reply.observed_faults = events;
    reply.docs = std::move(out.result.docs);
    reply.trace = out.trace;
    return reply;
  }

  const std::uint64_t faults_before = observed_faults_;
  std::vector<std::size_t>& order = order_scratch_;
  pick_order(order);

  GroupReply reply;
  if (order[0] != 0) reply.failovers = 1;
  if (order[0] != last_first_) {
    ++routing_changes_;
    last_first_ = order[0];
  }

  Attempt win = run_attempt(order[0], q);
  std::size_t next_slot = 1;
  // The broker's wait before the winning attempt started: the hedge
  // delay when the hedge won. win.t includes it, so the retry loop and
  // the deadline see the broker's view; it is overhead, not service.
  Micros hedge_wait = micros(0);

  // Hedge: once the primary attempt runs past hedge_delay the broker
  // dispatches the next replica in health order and takes the first
  // completion. The loser keeps running on its own replica (state
  // effects stand) but its extra time is not on the broker's critical
  // path.
  if (rep_.hedge_delay > Micros{} && order.size() > 1 &&
      win.t > rep_.hedge_delay) {
    ++reply.hedges;
    Attempt hedge = run_attempt(order[next_slot], q);
    ++next_slot;
    if (rep_.hedge_delay + hedge.t < win.t) {
      ++reply.hedge_wins;
      win = std::move(hedge);
      win.t += rep_.hedge_delay;
      hedge_wait = rep_.hedge_delay;
    }
  }

  // Retry loop: fault-classified winners are retried on the next
  // replica in order after a capped-exponential, jittered pause. The
  // broker notices a deadline expiry at the deadline (it stops
  // waiting), a fault reply when it arrives.
  Micros elapsed = micros(0);
  while (win.faulted && reply.retries < rep_.retry_budget) {
    const Micros noticed =
        (deadline_ > Micros{} && win.t > deadline_) ? deadline_ : win.t;
    Micros pause = rep_.backoff_at(reply.retries);
    if (rep_.retry_jitter > 0) {
      pause *= 1.0 + rep_.retry_jitter * rng_.next_double();
    }
    elapsed += noticed + pause;
    reply.backoff_us += pause;
    ++reply.retries;
    win = run_attempt(order[next_slot % order.size()], q);
    ++next_slot;
    hedge_wait = micros(0);
  }

  const bool late = deadline_ > Micros{} && win.t > deadline_;
  reply.ok = !late;
  reply.faulted = win.faulted;
  reply.situation = win.situation;
  reply.docs = std::move(win.docs);
  reply.trace = win.trace;
  reply.response = elapsed + win.t;
  reply.noticed = late ? elapsed + deadline_ : reply.response;
  reply.overhead = elapsed + hedge_wait;
  reply.observed_faults = observed_faults_ - faults_before;
  return reply;
}

}  // namespace ssdse
