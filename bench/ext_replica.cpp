// Extension bench: shard replication and the tail-tolerant broker
// (DESIGN.md §15). Sweeps {R=1,2,3} x {fault-free, faulty primary} x
// {1x, 2x offered load} through the open-loop traffic harness, then
// gates the three policy headlines with targeted experiments:
//
//  (a) *Hedging cuts the tail.* With a latency-spiking primary and a
//      clean sibling, enabling hedged requests lowers the broker's
//      closed-loop p99 versus the identical no-hedge fleet.
//  (b) *Retries restore coverage.* Where the shard-deadline path
//      drops slow shards (coverage < 1), a retry budget converts every
//      drop back into a full answer (coverage == 1.0) — the retried
//      attempt replays against the now-warm result cache well inside
//      the deadline.
//  (c) *Failover keeps the SLO.* At 1x offered load a primary-only
//      (R=1) fleet with a degraded replica breaches its p99 SLO;
//      health-driven failover (R=2) routes around the sick replica and
//      keeps the verdict ok.
//
// Determinism: the faulty R=2 1x cell is re-run on a fresh cluster and
// must reproduce the windowed-series fingerprint and every policy
// counter bit for bit.
//
// Gates: hedge_cuts_p99, retries_restore_coverage, failover_keeps_slo,
// conservation and determinism. Emits the bench artifact
// (SSDSE_BENCH_OUT, default BENCH_ext_replica.json) validated by
// scripts/check_bench_json.py, and the faulty R=2 1x cell's run report
// with the "replication" section when SSDSE_TELEMETRY_OUT is set.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/hybrid/traffic.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

constexpr double kUtilizationTarget = 0.75;
constexpr std::uint32_t kServers = 4;
constexpr std::size_t kQueueCapacity = 256;
constexpr Micros kWindow = kSecond;

ClusterConfig base_cluster() {
  ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.total_docs = 400'000;
  cfg.shard_template.set_memory_budget(4 * MiB);
  cfg.shard_template.training_queries = 500;
  return cfg;
}

/// The standard policy stack for replicated cells: retries with the
/// default capped-exponential backoff, hedging past `hedge_delay`, and
/// health-driven failover. R=1 cells keep retries only (hedging and
/// failover need a sibling).
ReplicationConfig policy_stack(std::uint32_t factor, Micros hedge_delay) {
  ReplicationConfig rep;
  rep.replication_factor = factor;
  rep.retry_budget = 2;
  rep.hedge_delay = factor > 1 ? hedge_delay : Micros{};
  rep.failover = factor > 1;
  return rep;
}

/// One degraded replica: slot 0 of every shard pays `spike` extra on
/// each index-store access plus a trickle of uncorrectable reads. The
/// siblings (slots > 0) stay clean — exactly the asymmetry hedging and
/// failover exploit.
void inject_sick_primary(ClusterConfig& cfg, double spike_rate,
                         Micros spike) {
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    ReplicaFaultOverride sick;
    sick.shard = s;
    sick.replica = 0;
    sick.hdd.read_unc_rate = 0.02;
    sick.hdd.latency_spike_rate = spike_rate;
    sick.hdd.spike_latency = spike;
    sick.hdd.seed = 0xbad'5eed'0ull + s;
    cfg.replica_faults.push_back(sick);
  }
}

struct Calibration {
  std::uint64_t queries = 0;
  Micros mean_service = micros(0);
  Micros p99_service = micros(0);
  Micros median_slowest_shard = micros(0);  // deadline anchor for gate (b)
  double capacity_qps = 0;          // kUtilizationTarget * saturation
};

Calibration calibrate(std::uint64_t queries) {
  SearchCluster cluster(base_cluster());
  ClusterTrafficTarget target(cluster);
  LatencyHistogram service;
  StreamingStats stats;
  std::vector<Micros> slowest;
  for (std::uint64_t i = 0; i < queries; ++i) {
    const Query q = cluster.generator().next();
    const Micros s = target.serve(q);
    service.add(s);
    stats.add(s);
  }
  // Separate short probe for the deadline anchor (serve() hides the
  // per-shard split).
  SearchCluster probe(base_cluster());
  for (int i = 0; i < 100; ++i) {
    slowest.push_back(probe.execute(probe.generator().next()).slowest_shard);
  }
  std::nth_element(slowest.begin(), slowest.begin() + slowest.size() / 2,
                   slowest.end());

  Calibration cal;
  cal.queries = queries;
  cal.mean_service = micros(stats.mean());
  cal.p99_service = micros(service.quantile(0.99));
  cal.median_slowest_shard = slowest[slowest.size() / 2];
  cal.capacity_qps = kUtilizationTarget * kServers * kSecond.value() /
                     std::max(cal.mean_service.value(), 1.0);
  return cal;
}

std::vector<telemetry::SloSpec> make_slos(const Calibration& cal) {
  telemetry::SloSpec p99;
  p99.name = "p99_latency";
  p99.quantile = 0.99;
  p99.threshold_us = std::max(5.0 * cal.p99_service.value(), ms(2).value());
  p99.compliance_windows = 10;
  return {p99};
}

// ---- Sweep cells ------------------------------------------------------

struct SweepCell {
  const char* name;
  std::uint32_t factor;
  bool faulty;
  double multiplier;
};

struct CellOutcome {
  const SweepCell* cell = nullptr;
  TrafficResult result{kWindow};
  ReplicationSnapshot snap;
  std::uint64_t fingerprint = 0;
  bool conservation = false;
};

CellOutcome run_cell(const SweepCell& cell, const Calibration& cal,
                     std::uint64_t offered, Micros spike,
                     bool emit_report) {
  ClusterConfig cfg = base_cluster();
  cfg.replication = policy_stack(cell.factor, 2.0 * cal.p99_service);
  if (cell.faulty) inject_sick_primary(cfg, 0.1, spike);
  SearchCluster cluster(cfg);
  ClusterTrafficTarget target(cluster);

  TrafficConfig tcfg;
  tcfg.arrival.base_qps = cell.multiplier * cal.capacity_qps;
  tcfg.arrival.seed = 4242;
  tcfg.offered = offered;
  tcfg.servers = kServers;
  tcfg.queue_capacity = kQueueCapacity;
  tcfg.window = kWindow;
  tcfg.slos = make_slos(cal);
  tcfg.worst_n = 16;

  CellOutcome out;
  out.cell = &cell;
  out.result = run_traffic(target, cluster.generator(), tcfg);
  out.snap = cluster.replication_snapshot();
  out.fingerprint = out.result.series_fingerprint();
  out.conservation =
      out.result.served + out.result.shed == out.result.offered;
  if (emit_report) {
    maybe_write_report(cluster.shard(0), "ext_replica", &out.result,
                       &out.snap);
  }
  return out;
}

// ---- Gate (a): hedging cuts the closed-loop broker p99 ---------------

struct HedgeGate {
  Micros p99_no_hedge = micros(0);
  Micros p99_hedge = micros(0);
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  bool pass = false;
};

Micros closed_loop_p99(const ClusterConfig& cfg, std::uint64_t queries,
                       ReplicationSnapshot* snap) {
  SearchCluster cluster(cfg);
  LatencyHistogram hist;
  for (std::uint64_t i = 0; i < queries; ++i) {
    hist.add(cluster.execute(cluster.generator().next()).response);
  }
  if (snap != nullptr) *snap = cluster.replication_snapshot();
  return micros(hist.quantile(0.99));
}

HedgeGate run_hedge_gate(const Calibration& cal, std::uint64_t queries,
                         Micros spike) {
  ClusterConfig cfg = base_cluster();
  inject_sick_primary(cfg, 0.25, spike);
  cfg.replication.replication_factor = 2;  // no hedge, no failover

  HedgeGate g;
  g.p99_no_hedge = closed_loop_p99(cfg, queries, nullptr);

  cfg.replication.hedge_delay = 2.0 * cal.p99_service;
  ReplicationSnapshot snap;
  g.p99_hedge = closed_loop_p99(cfg, queries, &snap);
  g.hedges = snap.hedges;
  g.hedge_wins = snap.hedge_wins;
  g.pass = g.p99_hedge < g.p99_no_hedge && g.hedges > 0 && g.hedge_wins > 0;
  return g;
}

// ---- Gate (b): retries restore coverage under the deadline -----------

struct RetryGate {
  Micros deadline = micros(0);
  double coverage_no_retry = 1.0;
  double coverage_retry = 0.0;
  std::uint64_t retries = 0;
  bool pass = false;
};

RetryGate run_retry_gate(const Calibration& cal, std::uint64_t queries) {
  RetryGate g;
  g.deadline = cal.median_slowest_shard;

  ClusterConfig cfg = base_cluster();
  cfg.shard_deadline = g.deadline;
  {
    SearchCluster dropped(cfg);
    dropped.run(queries);
    g.coverage_no_retry = dropped.replication_snapshot().coverage_mean;
  }
  cfg.replication.retry_budget = 2;
  SearchCluster retried(cfg);
  retried.run(queries);
  const auto snap = retried.replication_snapshot();
  g.coverage_retry = snap.coverage_mean;
  g.retries = snap.retries;
  g.pass = g.coverage_no_retry < 1.0 && g.coverage_retry == 1.0 &&
           g.retries > 0;
  return g;
}

// ---- Gate (c): failover keeps the 1x SLO ok --------------------------

struct FailoverGate {
  std::string primary_only_state = "ok";
  std::uint64_t primary_only_breaches = 0;
  std::string failover_state = "breach";
  std::uint64_t failover_breaches = 0;
  std::uint64_t failovers = 0;
  std::uint64_t routing_changes = 0;
  bool pass = false;
};

/// 1x traffic against an existing cluster, after a short closed-loop
/// warmup: production fleets do not take SLO verdicts on ice-cold
/// caches, and the warmup also lets the broker's health EWMAs find the
/// sick replica before the clock starts. Both gate arms get the same
/// treatment.
TrafficResult slo_run(SearchCluster& cluster, const Calibration& cal,
                      std::uint64_t offered) {
  cluster.run(200);  // warmup: caches + replica health state
  ClusterTrafficTarget target(cluster);
  TrafficConfig tcfg;
  tcfg.arrival.base_qps = cal.capacity_qps;  // 1x
  tcfg.arrival.seed = 4242;
  tcfg.offered = offered;
  tcfg.servers = kServers;
  tcfg.queue_capacity = kQueueCapacity;
  tcfg.window = kWindow;
  tcfg.slos = make_slos(cal);
  tcfg.worst_n = 16;
  return run_traffic(target, cluster.generator(), tcfg);
}

FailoverGate run_failover_gate(const Calibration& cal,
                               std::uint64_t offered, Micros spike) {
  // Always-slow primary: every index-store access on slot 0 pays the
  // spike, so its EWMA pins high after the first touch and failover
  // locks traffic onto the clean sibling. Failover learns a sibling's
  // health only from traffic the sibling receives; with hedging off,
  // the single retry that follows the primary's uncorrectable reads
  // gives the sibling its first EWMA samples. Both arms get the same
  // budget, so the comparison isolates failover.
  FailoverGate g;
  ClusterConfig cfg = base_cluster();
  inject_sick_primary(cfg, 1.0, spike);
  cfg.replication.retry_budget = 1;

  SearchCluster primary_only(cfg);
  const TrafficResult primary = slo_run(primary_only, cal, offered);
  g.primary_only_state = telemetry::to_string(primary.slo.front().state);
  g.primary_only_breaches = primary.slo.front().breach_windows;

  cfg.replication.replication_factor = 2;
  cfg.replication.failover = true;
  SearchCluster cluster(cfg);
  const TrafficResult failover = slo_run(cluster, cal, offered);
  g.failover_state = telemetry::to_string(failover.slo.front().state);
  g.failover_breaches = failover.slo.front().breach_windows;
  const ReplicationSnapshot snap = cluster.replication_snapshot();
  g.failovers = snap.failovers;
  g.routing_changes = snap.routing_changes;

  g.pass = g.primary_only_breaches > 0 && g.failover_breaches == 0 &&
           failover.slo.front().state != telemetry::SloState::kBreach &&
           g.failovers > 0;
  return g;
}

}  // namespace

int main() {
  print_environment("Extension — shard replication & tail-tolerant broker");
  const std::uint64_t offered = default_queries(6'000);
  const std::uint64_t gate_queries =
      std::max<std::uint64_t>(offered / 2, 1'000);
  const std::uint64_t calibration_queries =
      std::min<std::uint64_t>(2'000, std::max<std::uint64_t>(offered / 4, 500));

  std::printf("calibrating capacity (%llu closed-loop queries)...\n",
              static_cast<unsigned long long>(calibration_queries));
  const Calibration cal = calibrate(calibration_queries);
  const Micros spike = std::max(20.0 * cal.p99_service, ms(20));
  std::printf(
      "  mean service %.2f ms, p99 %.2f ms, median slowest shard %.2f ms\n"
      "  => capacity %.0f q/s, fault spike %.1f ms\n\n",
      cal.mean_service / kMillisecond, cal.p99_service / kMillisecond,
      cal.median_slowest_shard / kMillisecond, cal.capacity_qps,
      spike / kMillisecond);

  const std::vector<SweepCell> kCells = {
      {"r1_clean_1x", 1, false, 1.0},   {"r1_faulty_1x", 1, true, 1.0},
      {"r2_clean_1x", 2, false, 1.0},   {"r2_faulty_1x", 2, true, 1.0},
      {"r3_clean_1x", 3, false, 1.0},   {"r3_faulty_1x", 3, true, 1.0},
      {"r1_faulty_2x", 1, true, 2.0},   {"r2_faulty_2x", 2, true, 2.0},
      {"r3_faulty_2x", 3, true, 2.0},
  };

  std::vector<CellOutcome> cells;
  for (const SweepCell& c : kCells) {
    std::printf("running %-13s (R=%u, %s, %.0fx)...\n", c.name, c.factor,
                c.faulty ? "faulty" : "clean", c.multiplier);
    cells.push_back(
        run_cell(c, cal, offered, spike,
                 /*emit_report=*/std::strcmp(c.name, "r2_faulty_1x") == 0));
  }

  std::printf("re-running r2_faulty_1x for determinism...\n\n");
  const SweepCell* repeat_cell = &kCells[3];
  const CellOutcome repeat =
      run_cell(*repeat_cell, cal, offered, spike, /*emit_report=*/false);
  const CellOutcome& first = cells[3];
  const bool determinism =
      repeat.fingerprint == first.fingerprint &&
      repeat.snap.retries == first.snap.retries &&
      repeat.snap.hedges == first.snap.hedges &&
      repeat.snap.failovers == first.snap.failovers &&
      repeat.snap.routing_changes == first.snap.routing_changes &&
      repeat.snap.dispatches == first.snap.dispatches;

  Table t({"cell", "served", "shed", "p99 (ms)", "coverage", "retries",
           "hedges", "failovers", "p99 SLO"});
  for (const CellOutcome& c : cells) {
    const TrafficResult& r = c.result;
    t.add_row({c.cell->name, Table::num(static_cast<double>(r.served), 0),
               Table::num(static_cast<double>(r.shed), 0),
               fmt_ms(micros(r.response_hist.quantile(0.99))),
               Table::num(c.snap.coverage_mean, 4),
               Table::num(static_cast<double>(c.snap.retries), 0),
               Table::num(static_cast<double>(c.snap.hedges), 0),
               Table::num(static_cast<double>(c.snap.failovers), 0),
               telemetry::to_string(r.slo.front().state)});
  }
  t.print();

  std::printf("\ngate (a): hedging vs no-hedge under a spiky primary...\n");
  const HedgeGate hedge = run_hedge_gate(cal, gate_queries, spike);
  std::printf("  p99 %.2f ms -> %.2f ms (%llu hedges, %llu wins) %s\n",
              hedge.p99_no_hedge / kMillisecond,
              hedge.p99_hedge / kMillisecond,
              static_cast<unsigned long long>(hedge.hedges),
              static_cast<unsigned long long>(hedge.hedge_wins),
              hedge.pass ? "ok" : "FAIL");

  std::printf("gate (b): retry budget vs the deadline drop path...\n");
  const RetryGate retry = run_retry_gate(cal, gate_queries);
  std::printf("  coverage %.4f -> %.4f (%llu retries, deadline %.2f ms) %s\n",
              retry.coverage_no_retry, retry.coverage_retry,
              static_cast<unsigned long long>(retry.retries),
              retry.deadline / kMillisecond, retry.pass ? "ok" : "FAIL");

  std::printf("gate (c): failover vs primary-only at 1x load...\n");
  const FailoverGate failover = run_failover_gate(cal, offered, spike);
  std::printf(
      "  primary-only %s (%llu breach windows), failover %s "
      "(%llu failovers, %llu routing changes) %s\n",
      failover.primary_only_state.c_str(),
      static_cast<unsigned long long>(failover.primary_only_breaches),
      failover.failover_state.c_str(),
      static_cast<unsigned long long>(failover.failovers),
      static_cast<unsigned long long>(failover.routing_changes),
      failover.pass ? "ok" : "FAIL");

  bool conservation = true;
  for (const CellOutcome& c : cells) conservation = conservation && c.conservation;
  conservation = conservation && repeat.conservation;
  std::printf(
      "\ngates: hedge %s, retry %s, failover %s, conservation %s, "
      "determinism %s\n",
      hedge.pass ? "ok" : "FAIL", retry.pass ? "ok" : "FAIL",
      failover.pass ? "ok" : "FAIL", conservation ? "ok" : "FAIL",
      determinism ? "ok" : "FAIL");

  const ReplicationConfig sched_ref = policy_stack(2, micros(0));
  return finish_bench(
      "ext_replica",
      {{"hedge_cuts_p99", hedge.pass},
       {"retries_restore_coverage", retry.pass},
       {"failover_keeps_slo", failover.pass},
       {"conservation", conservation},
       {"determinism", determinism}},
      [&](telemetry::JsonWriter& w) {
        w.key("offered_per_cell");
        w.value(offered);
        w.key("servers");
        w.value(static_cast<std::uint64_t>(kServers));
        w.key("window_us");
        w.value(kWindow.value());
        w.key("calibration");
        w.begin_object();
        w.key("queries");
        w.value(cal.queries);
        w.key("mean_service_us");
        w.value(cal.mean_service.value());
        w.key("p99_service_us");
        w.value(cal.p99_service.value());
        w.key("median_slowest_shard_us");
        w.value(cal.median_slowest_shard.value());
        w.key("capacity_qps");
        w.value(cal.capacity_qps);
        w.key("fault_spike_us");
        w.value(spike.value());
        w.end_object();
        w.key("backoff_schedule_us");
        w.begin_array();
        for (std::uint32_t k = 0; k < sched_ref.retry_budget; ++k) {
          w.value(sched_ref.backoff_at(k).value());
        }
        w.end_array();
        w.key("cells");
        w.begin_array();
        for (const CellOutcome& c : cells) {
          const TrafficResult& r = c.result;
          w.begin_object();
          w.key("name");
          w.value(c.cell->name);
          w.key("replication_factor");
          w.value(static_cast<std::uint64_t>(c.cell->factor));
          w.key("faulty");
          w.value(c.cell->faulty);
          w.key("multiplier");
          w.value(c.cell->multiplier);
          w.key("offered");
          w.value(r.offered);
          w.key("served");
          w.value(r.served);
          w.key("shed");
          w.value(r.shed);
          w.key("conservation");
          w.value(c.conservation);
          w.key("response_p50_us");
          w.value(r.response_hist.quantile(0.50));
          w.key("response_p99_us");
          w.value(r.response_hist.quantile(0.99));
          w.key("coverage_mean");
          w.value(c.snap.coverage_mean);
          w.key("dispatches");
          w.value(c.snap.dispatches);
          w.key("retries");
          w.value(c.snap.retries);
          w.key("hedges");
          w.value(c.snap.hedges);
          w.key("hedge_wins");
          w.value(c.snap.hedge_wins);
          w.key("failovers");
          w.value(c.snap.failovers);
          w.key("routing_changes");
          w.value(c.snap.routing_changes);
          w.key("shards_failed");
          w.value(c.snap.shards_failed);
          w.key("slo_state");
          w.value(telemetry::to_string(r.slo.front().state));
          w.key("breach_windows");
          w.value(r.slo.front().breach_windows);
          w.key("fingerprint");
          w.value(c.fingerprint);
          w.end_object();
        }
        w.end_array();
        w.key("determinism");
        w.begin_object();
        w.key("cell");
        w.value(repeat_cell->name);
        w.key("fingerprint_a");
        w.value(first.fingerprint);
        w.key("fingerprint_b");
        w.value(repeat.fingerprint);
        w.end_object();
        w.key("hedge");
        w.begin_object();
        w.key("p99_no_hedge_us");
        w.value(hedge.p99_no_hedge.value());
        w.key("p99_hedge_us");
        w.value(hedge.p99_hedge.value());
        w.key("hedges");
        w.value(hedge.hedges);
        w.key("hedge_wins");
        w.value(hedge.hedge_wins);
        w.end_object();
        w.key("retry");
        w.begin_object();
        w.key("deadline_us");
        w.value(retry.deadline.value());
        w.key("coverage_no_retry");
        w.value(retry.coverage_no_retry);
        w.key("coverage_retry");
        w.value(retry.coverage_retry);
        w.key("retries");
        w.value(retry.retries);
        w.end_object();
        w.key("failover");
        w.begin_object();
        w.key("primary_only_state");
        w.value(failover.primary_only_state);
        w.key("primary_only_breach_windows");
        w.value(failover.primary_only_breaches);
        w.key("failover_state");
        w.value(failover.failover_state);
        w.key("failover_breach_windows");
        w.value(failover.failover_breaches);
        w.key("failovers");
        w.value(failover.failovers);
        w.key("routing_changes");
        w.value(failover.routing_changes);
        w.end_object();
      });
}
