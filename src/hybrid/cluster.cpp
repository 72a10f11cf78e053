#include "src/hybrid/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace ssdse {

SearchCluster::SearchCluster(const ClusterConfig& cfg) : cfg_(cfg) {
  if (cfg.num_shards == 0) {
    throw std::invalid_argument("SearchCluster: need at least one shard");
  }
  const std::uint32_t factor =
      std::max<std::uint32_t>(cfg.replication.replication_factor, 1);
  groups_.reserve(cfg.num_shards);
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    SystemConfig shard_cfg = cfg.shard_template;
    shard_cfg.set_num_docs(
        std::max<std::uint64_t>(cfg.total_docs / cfg.num_shards, 1));
    // Distinct corpus per shard (disjoint documents), shared vocabulary
    // statistics: same query stream must be meaningful on every shard.
    // Replicas of one shard share the corpus seed — same partition —
    // and differ only in fault seeds (ReplicaGroup constructor).
    shard_cfg.corpus.seed = cfg.shard_template.corpus.seed + s;
    std::vector<std::optional<FaultPlan>> overrides(factor);
    for (const ReplicaFaultOverride& o : cfg.replica_faults) {
      if (o.shard == s && o.replica < factor) overrides[o.replica] = o.hdd;
    }
    groups_.push_back(std::make_unique<ReplicaGroup>(
        shard_cfg, cfg.replication, cfg.shard_deadline,
        cfg.replication.seed + s, overrides));
  }
  // The broadcast stream: use shard 0's log config (they all match on
  // vocabulary size by construction).
  gen_ = std::make_unique<QueryLogGenerator>(
      groups_[0]->replica(0).config().log);

  broker_registry_.counter("cluster.broker.queries", &broker_queries_);
  broker_registry_.counter("cluster.shards.dropped",
                           &shards_dropped_total_);
  broker_registry_.counter("cluster.shards.failed", &shards_failed_total_);
  broker_registry_.counter("cluster.broker.retries", &retries_total_);
  broker_registry_.counter("cluster.broker.hedges", &hedges_total_);
  broker_registry_.counter("cluster.broker.hedge_wins", &hedge_wins_total_);
  broker_registry_.counter("cluster.broker.failovers", &failovers_total_);
  broker_registry_.counter("cluster.broker.backoff_us", &backoff_us_total_);
  // Replica-fleet aggregates are pulled from the groups at snapshot
  // time (after any run_parallel join), so the broker registry never
  // races shard threads.
  broker_registry_.counter_fn("cluster.broker.routing_changes", [this] {
    std::uint64_t total = 0;
    for (const auto& g : groups_) total += g->routing_changes();
    return total;
  });
  broker_registry_.counter_fn("cluster.replica.dispatches", [this] {
    std::uint64_t total = 0;
    for (const auto& g : groups_) total += g->dispatches();
    return total;
  });
  broker_registry_.counter_fn("cluster.replica.faults", [this] {
    std::uint64_t total = 0;
    for (const auto& g : groups_) {
      for (std::size_t r = 0; r < g->num_replicas(); ++r) {
        total += g->state(r).faults;
      }
    }
    return total;
  });
  broker_registry_.counter_fn("cluster.replica.observed_faults", [this] {
    std::uint64_t total = 0;
    for (const auto& g : groups_) total += g->observed_faults();
    return total;
  });
  broker_registry_.counter_fn("cluster.replica.breaker_trips", [this] {
    std::uint64_t total = 0;
    for (const auto& g : groups_) {
      for (std::size_t r = 0; r < g->num_replicas(); ++r) {
        total += g->state(r).breaker.stats().trips;
      }
    }
    return total;
  });
  broker_registry_.counter_fn("cluster.replica.breaker_closes", [this] {
    std::uint64_t total = 0;
    for (const auto& g : groups_) {
      for (std::size_t r = 0; r < g->num_replicas(); ++r) {
        total += g->state(r).breaker.stats().closes;
      }
    }
    return total;
  });
  broker_registry_.histogram(
      "trace.broker_merge.us",
      &broker_tracer_.stage_hist(telemetry::TraceStage::kBrokerMerge));
  broker_registry_.histogram(
      "trace.broker_retry.us",
      &broker_tracer_.stage_hist(telemetry::TraceStage::kBrokerRetry));
}

SearchCluster::ClusterOutcome SearchCluster::merge_replies(
    QueryId qid, std::vector<GroupReply> replies) {
  ClusterOutcome out;
  const Micros deadline = cfg_.shard_deadline;
  const bool policy = cfg_.replication.active();
  ++broker_queries_;
  broker_tracer_.begin_query(qid);

  std::vector<ScoredDoc> merged;
  Situation worst_situation = Situation::kS1_ResultMemory;
  Micros wait = micros(0);
  Micros retry_overhead = micros(0);
  for (std::size_t s = 0; s < replies.size(); ++s) {
    const GroupReply& r = replies[s];
    out.slowest_shard = std::max(out.slowest_shard, r.response);
    out.retries += r.retries;
    out.hedges += r.hedges;
    out.hedge_wins += r.hedge_wins;
    out.failovers += r.failovers;
    retry_overhead += r.overhead;
    backoff_us_total_ += static_cast<std::uint64_t>(r.backoff_us.value());
    const bool dropped = policy ? !r.ok
                                : (deadline > Micros{} && r.response > deadline);
    if (dropped) {
      // Late shard: the broker stops waiting (at the deadline without
      // policies; at the post-retry give-up point with them); this
      // shard's documents (and its situation) are not part of the
      // answer. With retries exhausted on a fault-classified reply the
      // shard counts as *failed*, not merely late — partial results
      // are flagged, never silently merged (DESIGN.md §15).
      ++out.shards_dropped;
      if (policy) {
        wait = std::max(wait, r.noticed);
        if (r.faulted) ++out.shards_failed;
      }
      continue;
    }
    ++out.shards_included;
    if (policy) wait = std::max(wait, r.response);
    // The broker reports the situation of the slowest *included* path.
    if (static_cast<int>(r.situation) >
        static_cast<int>(worst_situation)) {
      worst_situation = r.situation;
    }
    for (const ScoredDoc& d : r.docs) {
      merged.push_back(ScoredDoc{
          DocId{d.doc.raw() *
                    static_cast<std::uint32_t>(groups_.size()) +
                static_cast<std::uint32_t>(s)},
          d.score});
    }
  }
  shards_dropped_total_ += out.shards_dropped;
  shards_failed_total_ += out.shards_failed;
  retries_total_ += out.retries;
  hedges_total_ += out.hedges;
  hedge_wins_total_ += out.hedge_wins;
  failovers_total_ += out.failovers;
  out.coverage = replies.empty()
                     ? 0.0
                     : static_cast<double>(out.shards_included) /
                           static_cast<double>(replies.size());
  coverage_ppm_sum_ +=
      static_cast<std::uint64_t>(std::llround(out.coverage * 1e6));

  // Broker merge: global top-K across the included shard results.
  const std::size_t k = std::min<std::size_t>(kTopK, merged.size());
  std::partial_sort(merged.begin(),
                    merged.begin() + static_cast<std::ptrdiff_t>(k),
                    merged.end(),
                    [](const ScoredDoc& a, const ScoredDoc& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.doc < b.doc;
                    });
  merged.resize(k);
  out.result.query = qid;
  out.result.docs = std::move(merged);

  // With no deadline (or none late) the broker waits for the slowest
  // shard; with drops it stops waiting at the deadline (policy off) or
  // at each group's give-up point (policy on: a retried shard is
  // waited for past the deadline — the broker chose to wait). Merge
  // CPU is paid only for results that actually arrived.
  if (!policy) {
    wait = (deadline > Micros{} && out.shards_dropped > 0) ? deadline
                                                    : out.slowest_shard;
  }
  out.response = wait + cfg_.network_rtt +
                 cfg_.merge_cpu_per_shard *
                     static_cast<double>(out.shards_included);
  broker_tracer_.add_span(telemetry::TraceStage::kBrokerMerge,
                          out.response - wait);
  if (retry_overhead > Micros{}) {
    broker_tracer_.add_span(telemetry::TraceStage::kBrokerRetry,
                            retry_overhead);
  }
  broker_tracer_.end_query(out.response);
  metrics_.record(worst_situation, out.response);
  return out;
}

SearchCluster::ClusterOutcome SearchCluster::execute(const Query& q) {
  std::vector<GroupReply> replies;
  replies.reserve(groups_.size());
  for (auto& group : groups_) {
    replies.push_back(group->serve(q));
  }
  return merge_replies(q.id, std::move(replies));
}

void SearchCluster::run(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    execute(gen_->next());
  }
}

void SearchCluster::run_parallel(std::uint64_t n) {
  // Materialize the broadcast stream once so every shard thread replays
  // exactly the queries run() would have issued.
  std::vector<Query> stream;
  stream.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) stream.push_back(gen_->next());

  std::vector<std::vector<GroupReply>> per_group(groups_.size());

  {
    std::vector<std::thread> workers;
    workers.reserve(groups_.size());
    for (std::size_t s = 0; s < groups_.size(); ++s) {
      workers.emplace_back([&, s] {
        // The whole policy stack runs on the group's thread: replicas,
        // health state, breakers, and the per-group jitter Rng are all
        // owned by the group, so the attempt sequence — and therefore
        // every counter — matches run() exactly.
        auto& out = per_group[s];
        out.reserve(stream.size());
        for (const Query& q : stream) {
          out.push_back(groups_[s]->serve(q));
        }
      });
    }
    for (auto& w : workers) w.join();
  }

  // Broker phase, sequential: identical merge + metrics as run().
  for (std::uint64_t i = 0; i < stream.size(); ++i) {
    std::vector<GroupReply> replies;
    replies.reserve(groups_.size());
    for (std::size_t s = 0; s < groups_.size(); ++s) {
      replies.push_back(std::move(per_group[s][i]));
    }
    merge_replies(stream[i].id, std::move(replies));
  }
}

telemetry::RegistrySnapshot SearchCluster::telemetry_snapshot() const {
  telemetry::RegistrySnapshot merged;
  for (const auto& group : groups_) {
    for (std::size_t r = 0; r < group->num_replicas(); ++r) {
      merged.merge(group->replica(r).telemetry_registry().snapshot());
    }
  }
  merged.merge(broker_registry_.snapshot());
  return merged;
}

double SearchCluster::throughput_qps() const {
  double min_qps = 0;
  bool first = true;
  for (const auto& group : groups_) {
    for (std::size_t r = 0; r < group->num_replicas(); ++r) {
      const double qps = group->replica(r).throughput_qps();
      if (first || qps < min_qps) {
        min_qps = qps;
        first = false;
      }
    }
  }
  return min_qps;
}

ReplicationSnapshot SearchCluster::replication_snapshot() const {
  ReplicationSnapshot snap;
  snap.groups = static_cast<std::uint32_t>(groups_.size());
  snap.replication_factor =
      std::max<std::uint32_t>(cfg_.replication.replication_factor, 1);
  snap.policy_active = cfg_.replication.active();
  snap.queries = broker_queries_;
  snap.retries = retries_total_;
  snap.hedges = hedges_total_;
  snap.hedge_wins = hedge_wins_total_;
  snap.failovers = failovers_total_;
  snap.shards_dropped = shards_dropped_total_;
  snap.shards_failed = shards_failed_total_;
  snap.coverage_mean =
      broker_queries_ == 0
          ? 1.0
          : static_cast<double>(coverage_ppm_sum_) /
                (1e6 * static_cast<double>(broker_queries_));
  snap.backoff_schedule.reserve(cfg_.replication.retry_budget);
  for (std::uint32_t k = 0; k < cfg_.replication.retry_budget; ++k) {
    snap.backoff_schedule.push_back(cfg_.replication.backoff_at(k));
  }
  snap.slots.resize(snap.replication_factor);
  for (const auto& g : groups_) {
    snap.dispatches += g->dispatches();
    snap.routing_changes += g->routing_changes();
    snap.observed_faults += g->observed_faults();
    for (std::size_t r = 0; r < g->num_replicas(); ++r) {
      const ReplicaGroup::ReplicaState& st = g->state(r);
      ReplicationSnapshot::Slot& slot = snap.slots[r];
      slot.attempts += st.attempts;
      slot.faults += st.faults;
      slot.breaker_trips += st.breaker.stats().trips;
      slot.breaker_reopens += st.breaker.stats().reopens;
      slot.breaker_closes += st.breaker.stats().closes;
      if (st.breaker.state() == CircuitBreaker::State::kOpen) {
        ++slot.breakers_open;
      }
      slot.ewma_us_mean += st.ewma_us.value();
    }
  }
  for (auto& slot : snap.slots) {
    slot.ewma_us_mean /= static_cast<double>(groups_.size());
  }
  return snap;
}

}  // namespace ssdse
