// Extension bench: open-loop traffic, SLO verdicts, and tail
// attribution (DESIGN.md §14). Sweeps offered load from 0.5x to 2x of
// the cluster's calibrated capacity through the arrival harness
// (src/workload/arrival.hpp) and gates:
//
//  1. *SLO met at 1x.* At the utilization-target load, and at 0.5x,
//     the p99 SLO never breaches (no breach windows over the run).
//  2. *Breach detected and attributed at 2x.* Past saturation the SLO
//     breaches and the worst-N attribution names queue_wait — tail
//     latency at overload is queueing, not service.
//  3. *Conservation.* shed + served == offered in every cell.
//  4. *Determinism.* Re-running the 1x cell on a fresh cluster
//     reproduces the windowed-series fingerprint bit for bit.
//
// "1x" means the utilization target (0.75 of saturation), not rho = 1:
// an open-loop queue at exactly rho = 1 is a random walk and no SLO
// verdict about it is stable. Capacity is calibrated per run from a
// closed-loop pass, so the gates track the simulator's own speed.
//
// Emits the bench artifact (SSDSE_BENCH_OUT, default
// BENCH_ext_traffic.json) validated by scripts/check_bench_json.py, and
// the 1x cell's run report with the traffic/windows/slo/attribution
// sections when SSDSE_TELEMETRY_OUT is set.
#include <cstdio>
#include <cstring>
#include <memory>
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

ClusterConfig traffic_cluster() {
  ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.total_docs = 2'000'000;
  cfg.shard_template = paper_system(CachePolicy::kCbslru, 1'000'000, 6 * MiB);
  return cfg;
}

struct Calibration {
  std::uint64_t queries = 0;
  Micros mean_service = micros(0);
  Micros p99_service = micros(0);
  double capacity_qps = 0;  // kUtilizationTarget * saturation
};

/// Closed-loop calibration: measure the cluster's service-time
/// distribution on its own query mix, then place "1x" at the
/// utilization target of the k-server saturation rate.
Calibration calibrate(std::uint64_t queries) {
  SearchCluster cluster(traffic_cluster());
  ClusterTrafficTarget target(cluster);
  LatencyHistogram service;
  StreamingStats stats;
  for (std::uint64_t i = 0; i < queries; ++i) {
    const Micros s = target.serve(cluster.generator().next());
    service.add(s);
    stats.add(s);
  }
  Calibration cal;
  cal.queries = queries;
  cal.mean_service = micros(stats.mean());
  cal.p99_service = micros(service.quantile(0.99));
  cal.capacity_qps = kUtilizationTarget * kServers * kSecond.value() /
                     std::max(cal.mean_service.value(), 1.0);
  return cal;
}

std::vector<telemetry::SloSpec> make_slos(const Calibration& cal) {
  telemetry::SloSpec p99;
  p99.name = "p99_latency";
  p99.quantile = 0.99;
  p99.threshold_us = 12.0 * cal.p99_service.value();
  p99.compliance_windows = 10;
  telemetry::SloSpec p999;
  p999.name = "p999_latency";
  p999.quantile = 0.999;
  p999.threshold_us = 40.0 * cal.p99_service.value();
  p999.compliance_windows = 10;
  return {p99, p999};
}

struct TrafficCell {
  const char* name;
  double multiplier;         // of calibrated capacity
  double diurnal_amplitude;  // gate cells keep this small
  bool flash_crowd;          // burst showcase only
  const char* expect;        // "met" | "breach" | "none"
};

struct CellOutcome {
  const TrafficCell* cell = nullptr;
  TrafficResult result{kWindow};
  std::uint64_t fingerprint = 0;
  bool conservation = false;
  bool pass = true;
};

CellOutcome run_cell(const TrafficCell& cell, const Calibration& cal,
                     std::uint64_t offered, bool emit_report) {
  SearchCluster cluster(traffic_cluster());
  ClusterTrafficTarget target(cluster);

  TrafficConfig cfg;
  cfg.arrival.base_qps = cell.multiplier * cal.capacity_qps;
  cfg.arrival.diurnal_amplitude = cell.diurnal_amplitude;
  cfg.arrival.diurnal_period = 20 * kSecond;
  cfg.arrival.outlier_probability = 0.001;
  cfg.arrival.outlier_terms = 8;
  cfg.arrival.seed = 4242;
  if (cell.flash_crowd) {
    cfg.arrival.flash_crowds.push_back(
        FlashCrowd{8 * kSecond, 4 * kSecond, 2.5});
  }
  cfg.offered = offered;
  cfg.servers = kServers;
  cfg.queue_capacity = kQueueCapacity;
  cfg.window = kWindow;
  cfg.slos = make_slos(cal);
  cfg.worst_n = 32;

  CellOutcome out;
  out.cell = &cell;
  out.result = run_traffic(target, cluster.generator(), cfg);
  out.fingerprint = out.result.series_fingerprint();
  out.conservation =
      out.result.served + out.result.shed == out.result.offered;

  const SloReport& p99 = out.result.slo.front();
  if (std::strcmp(cell.expect, "met") == 0) {
    out.pass = p99.breach_windows == 0 &&
               p99.state != telemetry::SloState::kBreach;
  } else if (std::strcmp(cell.expect, "breach") == 0) {
    out.pass = p99.breach_windows > 0 &&
               out.result.guilty_stage == "queue_wait";
  }
  out.pass = out.pass && out.conservation;

  if (emit_report) {
    maybe_write_report(cluster.telemetry_snapshot(), "ext_traffic",
                       &out.result);
  }
  return out;
}

}  // namespace

int main() {
  print_environment("Extension — open-loop traffic, SLOs, tail attribution");
  const std::uint64_t offered = default_queries(20'000);
  const std::uint64_t calibration_queries =
      std::min<std::uint64_t>(4'000, std::max<std::uint64_t>(offered / 4, 500));

  std::printf("calibrating capacity (%llu closed-loop queries)...\n",
              static_cast<unsigned long long>(calibration_queries));
  const Calibration cal = calibrate(calibration_queries);
  std::printf(
      "  mean service %.2f ms, p99 %.2f ms => capacity %.0f q/s "
      "(%u servers at %.0f%% utilization)\n\n",
      cal.mean_service / kMillisecond, cal.p99_service / kMillisecond,
      cal.capacity_qps, kServers, 100.0 * kUtilizationTarget);

  const std::vector<TrafficCell> kCells = {
      {"0.5x", 0.5, 0.05, false, "met"},
      {"1x", 1.0, 0.05, false, "met"},
      {"2x", 2.0, 0.05, false, "breach"},
      {"burst", 1.0, 0.30, true, "none"},
  };

  std::vector<CellOutcome> cells;
  for (const TrafficCell& c : kCells) {
    std::printf("running %-6s (%.0f q/s offered, %llu arrivals)...\n",
                c.name, c.multiplier * cal.capacity_qps,
                static_cast<unsigned long long>(offered));
    cells.push_back(run_cell(c, cal, offered,
                             /*emit_report=*/std::strcmp(c.name, "1x") == 0));
  }

  // Determinism: the 1x cell again, fresh cluster, same seeds.
  std::printf("re-running 1x for determinism...\n\n");
  const CellOutcome repeat =
      run_cell(kCells[1], cal, offered, /*emit_report=*/false);
  const bool determinism = repeat.fingerprint == cells[1].fingerprint;

  Table t({"cell", "offered", "served", "shed", "p99 (ms)", "wait p99 (ms)",
           "p99 SLO", "breach wins", "guilty stage"});
  for (const CellOutcome& c : cells) {
    const TrafficResult& r = c.result;
    const SloReport& s = r.slo.front();
    t.add_row({c.cell->name,
               Table::num(static_cast<double>(r.offered), 0),
               Table::num(static_cast<double>(r.served), 0),
               Table::num(static_cast<double>(r.shed), 0),
               fmt_ms(micros(r.response_hist.quantile(0.99))),
               fmt_ms(micros(r.wait_hist.quantile(0.99))),
               telemetry::to_string(s.state),
               Table::num(static_cast<double>(s.breach_windows), 0),
               r.guilty_stage});
  }
  t.print();

  const bool slo_met_at_1x = cells[0].pass && cells[1].pass;
  const bool breach_at_2x = cells[2].result.slo.front().breach_windows > 0;
  const bool attributed =
      cells[2].result.guilty_stage == "queue_wait";
  bool conservation = true;
  for (const CellOutcome& c : cells) conservation = conservation && c.conservation;
  conservation = conservation && repeat.conservation;

  std::printf(
      "\ngates: met@1x %s, breach@2x %s, attributed %s (%s), "
      "conservation %s, determinism %s\n",
      slo_met_at_1x ? "ok" : "FAIL", breach_at_2x ? "ok" : "FAIL",
      attributed ? "ok" : "FAIL", cells[2].result.guilty_stage.c_str(),
      conservation ? "ok" : "FAIL", determinism ? "ok" : "FAIL");

  return finish_bench(
      "ext_traffic",
      {{"slo_met_at_1x", slo_met_at_1x},
       {"breach_at_2x", breach_at_2x},
       {"attributed_queue_wait_at_2x", attributed},
       {"conservation", conservation},
       {"determinism", determinism}},
      [&](telemetry::JsonWriter& w) {
        w.key("offered_per_cell");
        w.value(offered);
        w.key("servers");
        w.value(static_cast<std::uint64_t>(kServers));
        w.key("queue_capacity");
        w.value(static_cast<std::uint64_t>(kQueueCapacity));
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
        w.key("utilization_target");
        w.value(kUtilizationTarget);
        w.key("capacity_qps");
        w.value(cal.capacity_qps);
        w.end_object();
        w.key("cells");
        w.begin_array();
        for (const CellOutcome& c : cells) {
          const TrafficResult& r = c.result;
          w.begin_object();
          w.key("name");
          w.value(c.cell->name);
          w.key("multiplier");
          w.value(c.cell->multiplier);
          w.key("expect");
          w.value(c.cell->expect);
          w.key("offered");
          w.value(r.offered);
          w.key("served");
          w.value(r.served);
          w.key("shed");
          w.value(r.shed);
          w.key("outliers");
          w.value(r.outliers);
          w.key("conservation");
          w.value(c.conservation);
          w.key("windows");
          w.value(static_cast<std::uint64_t>(
              r.response_windows.cells().size()));
          w.key("response_p50_us");
          w.value(r.response_hist.quantile(0.50));
          w.key("response_p99_us");
          w.value(r.response_hist.quantile(0.99));
          w.key("response_p999_us");
          w.value(r.response_hist.quantile(0.999));
          w.key("wait_p99_us");
          w.value(r.wait_hist.quantile(0.99));
          w.key("guilty_stage");
          w.value(r.guilty_stage);
          w.key("fingerprint");
          w.value(c.fingerprint);
          w.key("slo");
          w.begin_array();
          for (const SloReport& s : r.slo) {
            w.begin_object();
            w.key("name");
            w.value(s.spec.name);
            w.key("state");
            w.value(telemetry::to_string(s.state));
            w.key("windows");
            w.value(s.windows);
            w.key("breach_windows");
            w.value(s.breach_windows);
            w.key("first_breach_window");
            w.value(s.first_breach_window);
            w.key("burn_slow");
            w.value(s.burn_slow);
            w.key("max_burn_fast");
            w.value(s.max_burn_fast);
            w.end_object();
          }
          w.end_array();
          w.end_object();
        }
        w.end_array();
        w.key("determinism");
        w.begin_object();
        w.key("cell");
        w.value("1x");
        w.key("fingerprint_a");
        w.value(cells[1].fingerprint);
        w.key("fingerprint_b");
        w.value(repeat.fingerprint);
        w.end_object();
      });
}
