// cluster_traffic: a replicated SearchCluster (analytic shards, hedging
// and failover on, one replica with seeded HDD latency spikes) driven by
// run_traffic at a fixed simulated arrival rate.
//
// The host loop is closed (run_traffic calls serve synchronously); the
// simulated arrivals are open-loop. A wrapper target times every
// ClusterTrafficTarget::serve. Simulated response percentiles are exact:
// the benchmark regenerates the arrival times and replays the harness's
// k-server FIFO queue over the service times it observed, and checks the
// replay against the harness's own counts.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <queue>

#include "src/hybrid/cluster.hpp"
#include "src/hybrid/traffic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ssdse::Micros;
using ssdse::Query;

struct ClusterSpec {
  std::uint64_t seed = 0;
  ssdse::ClusterConfig cluster;
  ssdse::TrafficConfig traffic;
  std::uint64_t warmup = 0;  // closed-loop queries before timing
  std::uint64_t probes = 0;
  std::uint64_t setups = 1;
};

ClusterSpec make_spec(const Args& a) {
  ClusterSpec s;
  s.seed = a.u64("seed");
  ssdse::ClusterConfig& c = s.cluster;
  c.num_shards = static_cast<std::uint32_t>(a.u64("shards"));
  c.total_docs = a.u64("docs");
  ssdse::SystemConfig& t = c.shard_template;
  t.cache.policy = ssdse::CachePolicy::kCbslru;
  t.set_memory_budget(a.bytes("mem_budget"));
  t.cache.ssd_result_capacity = a.bytes("ssd_result");
  t.cache.ssd_list_capacity = a.bytes("ssd_list");
  size_cache_ssd(t, a.bytes("ssd_slack"));
  t.training_queries = a.u64("training_queries");
  t.log.distinct_queries = a.u64("distinct_queries");
  t.log.min_terms = static_cast<std::uint32_t>(a.u64("min_terms"));
  t.log.max_terms = static_cast<std::uint32_t>(a.u64("max_terms"));

  ssdse::ReplicationConfig& rep = c.replication;
  rep.replication_factor = static_cast<std::uint32_t>(a.u64("replicas"));
  rep.hedge_delay = ssdse::micros(a.num("hedge_delay_us"));
  rep.failover = true;
  // One sick replica: shard 0, replica 0 pays seeded HDD latency spikes.
  ssdse::ReplicaFaultOverride sick;
  sick.hdd.latency_spike_rate = a.num("spike_rate");
  sick.hdd.spike_latency = ssdse::micros(1000.0 * a.num("spike_ms"));
  sick.hdd.seed = stream_seed(s.seed, 4);
  c.replica_faults.push_back(sick);

  ssdse::TrafficConfig& tc = s.traffic;
  tc.arrival.base_qps = a.num("arrival_qps");
  tc.arrival.diurnal_amplitude = a.num("diurnal_amplitude");
  tc.arrival.diurnal_period =
      ssdse::micros(a.num("diurnal_period_s") * ssdse::kSecond.value());
  tc.arrival.outlier_probability = a.num("outlier_probability");
  tc.arrival.seed = stream_seed(s.seed, 3);
  tc.offered = a.u64("offered");
  tc.servers = static_cast<std::uint32_t>(a.u64("servers"));
  tc.queue_capacity = a.u64("queue_capacity");

  s.warmup = a.u64("warmup");
  s.probes = a.u64("probes");
  s.setups = std::max<std::uint64_t>(1, a.u64("setups"));
  // At least 1000 latency samples: 10 beyond the p99.
  if (tc.offered < 1000) {
    throw std::invalid_argument("--offered must be at least 1000");
  }
  a.reject_unused();
  return s;
}

struct Rig {
  std::unique_ptr<ssdse::SearchCluster> cluster;
  std::unique_ptr<ssdse::QueryLogGenerator> gen;
};

/// The broadcast query log every shard resolves from the template.
ssdse::QueryLogConfig shard_log(const ssdse::ClusterConfig& c) {
  ssdse::SystemConfig shard = c.shard_template;
  shard.set_num_docs(std::max<std::uint64_t>(c.total_docs / c.num_shards, 1));
  return shard.log;
}

/// Build and warm a cluster; `*seconds` is the set-up time (the query
/// stream is positioned before the clock starts).
std::unique_ptr<Rig> set_up(const ClusterSpec& s, double* seconds) {
  auto rig = std::make_unique<Rig>();
  rig->gen = query_stream(shard_log(s.cluster), s.seed);
  const std::uint64_t t0 = now_ns();
  rig->cluster = std::make_unique<ssdse::SearchCluster>(s.cluster);
  const ssdse::QueryLogConfig& log = rig->cluster->generator().config();
  if (log.vocab_size != rig->gen->config().vocab_size ||
      log.seed != rig->gen->config().seed) {
    throw std::logic_error("cluster resolved a different query log");
  }
  for (std::uint64_t i = 0; i < s.warmup; ++i) {
    (void)rig->cluster->execute(rig->gen->next());
  }
  *seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return rig;
}

void set_tracing(ssdse::SearchCluster& c, bool on) {
  for (std::uint32_t g = 0; g < c.num_shards(); ++g) {
    for (std::size_t r = 0; r < c.group(g).num_replicas(); ++r) {
      c.group(g).replica(r).set_tracing(on);
    }
  }
}


/// Times every serve of the wrapped target and records its simulated
/// service time, in dispatch order.
class TimedTarget final : public ssdse::TrafficTarget {
 public:
  TimedTarget(ssdse::TrafficTarget& inner, ssdse::SearchCluster& cluster,
              std::uint64_t offered, bool toggle_tracer, SpanLog* spans)
      : inner_(inner), cluster_(cluster), block_len_(offered / kBlocks),
        toggle_(toggle_tracer), spans_(spans) {
    wall_us.reserve(offered);
    service_us.reserve(offered);
  }

  Micros serve(const Query& q) override {
    const std::uint64_t n = wall_us.size();
    const bool tracing = TracerSplit::on_at(n);
    if (toggle_ && n % kTracerToggle == 0) set_tracing(cluster_, tracing);
    const std::uint64_t t0 = now_ns();
    if (n == 0) block_t0_ = t0;
    const Micros service = inner_.serve(q);
    const std::uint64_t t1 = now_ns();
    if (spans_ != nullptr) spans_->add(n, Layer::kHybridServe, t0, t1);
    const double ns = static_cast<double>(t1 - t0);
    wall_us.push_back(ns / 1e3);
    service_us.push_back(service.value());
    serve_ns += ns;
    if (toggle_) tracer.add(tracing, ns);
    fold_double(fingerprint, service.value());
    if (block_len_ > 0 && (n + 1) % block_len_ == 0) {
      blocks.push_back({n + 1 - block_len_, n + 1,
                        static_cast<double>(block_len_) * 1e9 /
                            static_cast<double>(t1 - block_t0_)});
      block_t0_ = t1;
    }
    return service;
  }
  [[nodiscard]] const ssdse::telemetry::QueryTrace* last_trace()
      const override {
    return inner_.last_trace();
  }
  [[nodiscard]] double last_coverage() const override {
    return inner_.last_coverage();
  }

  std::vector<double> wall_us;
  std::vector<double> service_us;
  std::vector<Block> blocks;
  double serve_ns = 0;
  TracerSplit tracer;
  std::uint64_t fingerprint = kFnvSeed;

 private:
  ssdse::TrafficTarget& inner_;
  ssdse::SearchCluster& cluster_;
  std::uint64_t block_len_;
  bool toggle_;
  SpanLog* spans_;
  std::uint64_t block_t0_ = 0;
};

/// Response times (arrival to completion) of the served arrivals,
/// replaying run_traffic's admission and k-server FIFO dispatch.
struct Replay {
  std::vector<double> response_us;
  std::uint64_t shed = 0;
  double response_sum = 0;  // in dispatch order, as the harness sums it
  bool used_all_services = false;
};

Replay replay_queue(const ClusterSpec& s, const ssdse::QueryLogConfig& log,
                    const std::vector<double>& service_us) {
  // Arrival times depend only on the arrival seed, not on the queries.
  ssdse::QueryLogGenerator gen(log);
  ssdse::ArrivalProcess process(s.traffic.arrival, gen);
  std::vector<double> arrival(s.traffic.offered);
  for (double& t : arrival) t = process.next().time.value();

  Replay r;
  r.response_us.reserve(service_us.size());
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (std::uint32_t k = 0; k < s.traffic.servers; ++k) free_at.push(0.0);
  std::deque<std::size_t> waiting;
  std::size_t next_service = 0;
  bool overrun = false;
  const auto dispatch = [&](std::size_t i, double server_free) {
    if (next_service >= service_us.size()) {
      overrun = true;
      return;
    }
    const double start = std::max(arrival[i], server_free);
    const double completion = start + service_us[next_service++];
    free_at.push(completion);
    const double response = completion - arrival[i];
    r.response_us.push_back(response);
    r.response_sum += response;
  };
  for (std::size_t i = 0; i < arrival.size(); ++i) {
    while (!waiting.empty() && free_at.top() <= arrival[i]) {
      const double f = free_at.top();
      free_at.pop();
      dispatch(waiting.front(), f);
      waiting.pop_front();
    }
    if (waiting.empty() && free_at.top() <= arrival[i]) {
      const double f = free_at.top();
      free_at.pop();
      dispatch(i, f);
    } else if (s.traffic.queue_capacity != 0 &&
               waiting.size() >= s.traffic.queue_capacity) {
      ++r.shed;
    } else {
      waiting.push_back(i);
    }
  }
  while (!waiting.empty()) {
    const double f = free_at.top();
    free_at.pop();
    dispatch(waiting.front(), f);
    waiting.pop_front();
  }
  r.used_all_services = !overrun && next_service == service_us.size();
  return r;
}

struct PassResult {
  std::uint64_t fingerprint = kFnvSeed;
  Counters before, after;
  ssdse::ReplicationSnapshot snap_before, snap_after;
  std::unique_ptr<TimedTarget> timed;
  std::uint64_t offered = 0, served = 0, shed = 0;
  double traffic_wall_ns = 0;
  double response_mean = 0;  // the harness's response_hist mean
  double peak_rss_mib = 0;
};

Counters counters_of(const ssdse::SearchCluster& c) {
  return model_counters(c.telemetry_snapshot());
}

PassResult run_pass(Rig& rig, const ClusterSpec& s, bool toggle_tracer,
                    SpanLog* spans, Report& rep) {
  ssdse::SearchCluster& cluster = *rig.cluster;
  PassResult r;
  r.before = counters_of(cluster);
  r.snap_before = cluster.replication_snapshot();
  // Constructed after warm-up so set-up flash work is not charged to
  // the first timed query.
  ssdse::ClusterTrafficTarget target(cluster);
  r.timed = std::make_unique<TimedTarget>(target, cluster, s.traffic.offered,
                                          toggle_tracer, spans);
  const std::uint64_t t0 = now_ns();
  const ssdse::TrafficResult tr =
      ssdse::run_traffic(*r.timed, *rig.gen, s.traffic);
  const std::uint64_t t1 = now_ns();
  if (spans != nullptr) spans->add(0, Layer::kWorkloadTraffic, t0, t1);
  if (toggle_tracer) set_tracing(cluster, true);
  r.traffic_wall_ns = static_cast<double>(t1 - t0);
  r.offered = tr.offered;
  r.served = tr.served;
  r.shed = tr.shed;
  r.response_mean = tr.response_hist.mean();
  r.peak_rss_mib = peak_rss_mib();
  r.after = counters_of(cluster);
  r.snap_after = cluster.replication_snapshot();
  rep.check(tr.served + tr.shed == tr.offered, "served + shed != offered");
  rep.check(tr.served == r.timed->service_us.size(),
            "served count differs from serve calls");

  r.fingerprint = r.timed->fingerprint;
  fold_counters(r.fingerprint, r.after);
  for (const std::uint64_t v :
       {r.snap_after.queries, r.snap_after.dispatches, r.snap_after.hedges,
        r.snap_after.hedge_wins, r.snap_after.failovers, r.snap_after.retries,
        tr.served, tr.shed}) {
    fold(r.fingerprint, v);
  }
  return r;
}

/// Cache-less, unreplicated cluster over independently built shards.
void probe_outputs(Rig& rig, const ClusterSpec& s, Report& rep) {
  ssdse::ClusterConfig ocfg = s.cluster;
  ocfg.shard_template.use_cache = false;
  ocfg.replication = ssdse::ReplicationConfig{};
  ocfg.replica_faults.clear();
  ssdse::SearchCluster truth(ocfg);
  ssdse::QueryLogGenerator probe_gen(rig.cluster->generator().config());
  for (std::uint64_t i = 0; i < s.probes; ++i) {
    const Query q = probe_gen.next();
    const auto got = rig.cluster->execute(q);
    const auto want = truth.execute(q);
    rep.check(got.coverage == 1.0 && same_result(got.result, want.result),
              "merged result differs from the cache-less oracle");
  }
}

void print_fingerprint(const ClusterSpec& s, const PassResult& r) {
  std::printf(
      "fingerprint cluster_traffic seed=%llu offered=%llu served=%llu "
      "shed=%llu: %016llx (erases=%llu hedges=%llu)\n",
      static_cast<unsigned long long>(s.seed),
      static_cast<unsigned long long>(r.offered),
      static_cast<unsigned long long>(r.served),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.fingerprint),
      static_cast<unsigned long long>(
          get(r.after, "ssd.cache.nand.block_erases")),
      static_cast<unsigned long long>(r.snap_after.hedges));
}

}  // namespace

Report run_cluster_workload(const Args& args, bool traced) {
  const ClusterSpec s = make_spec(args);
  Report rep;
  const auto warm_check = [&](const Rig& rig) {
    // The cache SSD of each shard's busiest replica has collected
    // garbage (a replica routed around may see almost no traffic).
    const ssdse::SearchCluster& c = *rig.cluster;
    for (std::uint32_t g = 0; g < c.num_shards(); ++g) {
      const ssdse::ReplicaGroup& group = c.group(g);
      std::size_t busiest = 0;
      for (std::size_t r = 1; r < group.num_replicas(); ++r) {
        if (group.state(r).attempts > group.state(busiest).attempts) {
          busiest = r;
        }
      }
      const ssdse::Ssd* ssd = group.replica(busiest).cache_ssd();
      rep.check(ssd != nullptr && ssd->ftl().stats().gc_invocations > 0,
                "warm-up ended before the first SSD garbage collection");
    }
  };

  if (!traced) {
    // As in the single-server workloads: first set-up measured, the
    // others timed after the output checks.
    std::vector<double> setup_s(s.setups);
    std::unique_ptr<Rig> rig = set_up(s, &setup_s[0]);
    warm_check(*rig);
    PassResult r = run_pass(*rig, s, false, nullptr, rep);
    print_fingerprint(s, r);
    const Counters window = delta(r.after, r.before);
    check_hit_invariants(rep, window);
    Replay replay = replay_queue(s, rig->cluster->generator().config(),
                                 r.timed->service_us);
    rep.check(replay.used_all_services && replay.shed == r.shed &&
                  replay.response_us.size() == r.served &&
                  replay.response_sum / static_cast<double>(r.served) ==
                      r.response_mean,
              "queue replay disagrees with run_traffic");

    const std::uint64_t queries = r.snap_after.queries - r.snap_before.queries;
    EndToEnd e;
    const Quiet quiet = quiet_blocks(r.timed->wall_us, r.timed->blocks);
    e.qps = quiet.qps;
    e.peak_rss_mib = r.peak_rss_mib;
    fill_model_metrics(e, window, queries);
    e.wall_us_p50 = quiet.wall_us_p50;
    e.wall_us_p99 = quiet.wall_us_p99;
    e.sim_resp_ms_p50 = percentile(replay.response_us, 0.50) / 1000.0;
    e.sim_resp_ms_p99 = percentile(replay.response_us, 0.99) / 1000.0;
    double service_sum = 0;
    for (const double v : r.timed->service_us) service_sum += v;
    std::printf("samples: %llu served of %llu offered (%llu shed, %llu "
                "in the counted blocks), mean service %.3f ms, %llu set-ups\n",
                static_cast<unsigned long long>(r.served),
                static_cast<unsigned long long>(r.offered),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(quiet.samples),
                service_sum / static_cast<double>(r.served) / 1000.0,
                static_cast<unsigned long long>(s.setups));
    probe_outputs(*rig, s, rep);
    rig.reset();
    for (std::uint64_t k = 1; k < s.setups; ++k) {
      rig = set_up(s, &setup_s[k]);
      rig.reset();
    }
    e.setup_s = median(setup_s);
    emit(rep, e);
    return rep;
  }

  double setup_unused = 0;
  std::unique_ptr<Rig> rig = set_up(s, &setup_unused);
  warm_check(*rig);
  PassResult a = run_pass(*rig, s, true, nullptr, rep);
  print_fingerprint(s, a);
  rig.reset();

  SpanLog spans(kSpanCapacity);
  rig = set_up(s, &setup_unused);
  PassResult b = run_pass(*rig, s, false, &spans, rep);
  print_fingerprint(s, b);
  // The query generator's own cost, timed on a private copy of the
  // stream (run_traffic draws from the generator internally).
  {
    ssdse::QueryLogGenerator gen(rig->cluster->generator().config());
    for (std::uint64_t i = 0; i < s.traffic.offered; ++i) {
      Span span(&spans, i, Layer::kWorkloadNext);
      (void)gen.next();
    }
  }
  require_same_state(a.fingerprint, a.after, b.fingerprint, b.after);
  std::filesystem::create_directories(".perfbench_out");
  if (!spans.write(spans_path("cluster_traffic", s.seed))) {
    throw std::runtime_error("cannot write spans");
  }
  const Counters window = delta(b.after, b.before);
  check_hit_invariants(rep, window);
  probe_outputs(*rig, s, rep);

  const std::uint64_t queries = b.snap_after.queries - b.snap_before.queries;
  const ssdse::ReplicationSnapshot& s0 = b.snap_before;
  const ssdse::ReplicationSnapshot& s1 = b.snap_after;
  const auto per_q = [&](std::uint64_t n) {
    return mean_of(static_cast<double>(n), queries);
  };
  PerLayer p;
  fill_counter_rates(p, window, queries);
  p.next_ns = spans.mean_ns(Layer::kWorkloadNext);
  p.traffic_self_ns =
      mean_of(b.traffic_wall_ns - b.timed->serve_ns, b.offered);
  p.serve_ns = spans.mean_ns(Layer::kHybridServe);
  p.dispatches_per_q = per_q(s1.dispatches - s0.dispatches);
  p.hedges_per_q = per_q(s1.hedges - s0.hedges);
  p.hedge_wins_per_q = per_q(s1.hedge_wins - s0.hedge_wins);
  p.routed_away_per_q = per_q(s1.failovers - s0.failovers);
  // coverage_mean is cumulative; take the timed window's share.
  p.coverage_mean =
      mean_of(s1.coverage_mean * static_cast<double>(s1.queries) -
                  s0.coverage_mean * static_cast<double>(s0.queries),
              queries);
  p.sim_shed_frac = mean_of(static_cast<double>(b.shed), b.offered);
  const double traced_ns = a.timed->tracer.mean(true);
  p.tracer_ns = traced_ns - a.timed->tracer.mean(false);
  p.trace_overhead_ratio = traced_ns > 0 ? p.serve_ns / traced_ns : 0.0;
  emit(rep, p);
  return rep;
}

}  // namespace perfbench
