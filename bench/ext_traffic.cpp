// Extension bench: open-loop traffic, SLO verdicts, and tail
// attribution (DESIGN.md §14). Sweeps offered load from 0.5x to 2x of
// the cluster's calibrated capacity through the arrival harness
// (src/workload/arrival.hpp) and gates:
//
//  1. *SLO met at 1x.* At the utilization-target load the p99 SLO
//     never breaches (no breach windows over the run).
//  2. *Breach detected and attributed at 2x.* Past saturation the SLO
//     breaches and the worst-N attribution names queue_wait — tail
//     latency at overload is queueing, not service.
//  3. *Conservation.* shed + served == offered in every cell.
//  4. *Determinism.* Re-running the 1x cell on a fresh cluster
//     reproduces the windowed-series fingerprint bit for bit.
//  5. *Zero-traffic pins.* With the harness unused, the perf_driver
//     phases reproduce their pinned fingerprints (enforced only at the
//     full query counts, like codec_pruning).
//
// "1x" means the utilization target (0.75 of saturation), not rho = 1:
// an open-loop queue at exactly rho = 1 is a random walk and no SLO
// verdict about it is stable. Capacity is calibrated per run from a
// closed-loop pass, so the gates track the simulator's own speed.
//
// Emits machine-readable JSON (SSDSE_BENCH_OUT, default
// BENCH_PR8.json) validated by scripts/check_bench_json.py, and the
// 1x cell's run report with the traffic/windows/slo/attribution
// sections when SSDSE_TELEMETRY_OUT is set.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/engine/daat.hpp"
#include "src/hybrid/traffic.hpp"
#include "src/telemetry/json_writer.hpp"
#include "src/util/rng.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

// Pinned zero-traffic fingerprints (PR 2/3, re-gated every PR since).
constexpr std::uint64_t kDaatPin = 9983495460346675520ull;
constexpr std::uint64_t kCachePinPpm = 322028;
constexpr std::uint64_t kSsdPinPpm = 508879;
constexpr std::uint64_t kFullSystemQueries = 40'000;
constexpr std::uint64_t kFullDaatQueries = 20'000;

constexpr double kUtilizationTarget = 0.75;
constexpr std::uint32_t kServers = 4;
constexpr std::size_t kQueueCapacity = 256;
constexpr Micros kWindow = kSecond;

std::uint64_t env_count(const char* name, std::uint64_t fallback) {
  if (const char* env = std::getenv(name)) {
    const auto v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return fallback;
}

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
    maybe_write_report(cluster.shard(0), "ext_traffic", &out.result);
  }
  return out;
}

// ---- Zero-traffic pins: the perf_driver phases, reproduced ----------

std::uint64_t daat_fingerprint(std::uint64_t queries) {
  CorpusConfig cc;
  cc.num_docs = 40'000;
  cc.vocab_size = 2'000;
  cc.terms_per_doc = 60;
  cc.max_df_fraction = 0.10;
  cc.seed = 2012;
  Rng rng(99);
  MaterializedCorpus corpus(cc, rng);
  MaterializedIndex index(corpus);

  QueryLogConfig qc;
  qc.distinct_queries = 50'000;
  qc.vocab_size = cc.vocab_size;
  qc.min_terms = 2;
  qc.max_terms = 3;
  qc.seed = 17;
  QueryLogGenerator gen(qc);

  DaatProcessor daat(/*top_k=*/kTopK);
  std::uint64_t checksum = 0;
  for (std::uint64_t i = 0; i < queries; ++i) {
    const Query q = gen.next();
    DaatStats stats;
    const ResultEntry r = daat.intersect(index, q, &stats);
    checksum += stats.docs_scored + stats.postings_touched;
    for (const ScoredDoc& d : r.docs) {
      std::uint32_t bits;
      std::memcpy(&bits, &d.score, sizeof bits);
      checksum = checksum * 1099511628211ull + d.doc.raw() + bits;
    }
  }
  return checksum;
}

std::uint64_t coverage_ppm(SystemConfig cfg, std::uint64_t queries) {
  SearchSystem system(cfg);
  system.run(queries);
  system.drain();
  return static_cast<std::uint64_t>(
      1e6 * system.metrics().request_coverage());
}

std::uint64_t cache_fingerprint(std::uint64_t queries) {
  SystemConfig cfg = paper_system(CachePolicy::kCblru);
  cfg.cache.l2 = false;
  cfg.set_memory_budget(64 * MiB);
  cfg.cache.l2 = false;  // set_memory_budget sizes SSD fields; keep off
  cfg.training_queries = 0;
  return coverage_ppm(cfg, queries);
}

std::uint64_t ssd_fingerprint(std::uint64_t queries) {
  return coverage_ppm(paper_system(CachePolicy::kCbslru), queries);
}

struct PinResult {
  const char* name;
  std::uint64_t fingerprint = 0;
  std::uint64_t expected = 0;
  bool match = false;
};

}  // namespace

int main() {
  print_environment("Extension — open-loop traffic, SLOs, tail attribution");
  const std::uint64_t offered = default_queries(20'000);
  const std::uint64_t system_queries = default_queries(40'000);
  const std::uint64_t daat_queries =
      env_count("SSDSE_DAAT_QUERIES", kFullDaatQueries);
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

  // Zero-traffic guard: harness unused, prior fingerprints must hold.
  const bool pins_enforced = system_queries == kFullSystemQueries &&
                             daat_queries == kFullDaatQueries;
  std::printf("\nzero-traffic fingerprints (%s)...\n",
              pins_enforced ? "enforced" : "reported only: reduced counts");
  std::vector<PinResult> pins;
  pins.push_back({"daat", daat_fingerprint(daat_queries), kDaatPin, false});
  pins.push_back(
      {"cache", cache_fingerprint(system_queries), kCachePinPpm, false});
  pins.push_back({"ssd", ssd_fingerprint(system_queries), kSsdPinPpm, false});
  bool pins_match = true;
  for (PinResult& p : pins) {
    p.match = p.fingerprint == p.expected;
    pins_match = pins_match && p.match;
    std::printf("  %-5s %llu (pin %llu) %s\n", p.name,
                static_cast<unsigned long long>(p.fingerprint),
                static_cast<unsigned long long>(p.expected),
                p.match ? "ok" : "MISMATCH");
  }

  const bool slo_met_at_1x = cells[1].pass;
  const bool breach_at_2x = cells[2].result.slo.front().breach_windows > 0;
  const bool attributed =
      cells[2].result.guilty_stage == "queue_wait";
  bool conservation = true;
  for (const CellOutcome& c : cells) conservation = conservation && c.conservation;
  conservation = conservation && repeat.conservation;
  const bool zero_traffic_ok = !pins_enforced || pins_match;
  const bool pass = slo_met_at_1x && breach_at_2x && attributed &&
                    conservation && determinism && zero_traffic_ok &&
                    cells[0].pass;

  std::printf(
      "\ngates: met@1x %s, breach@2x %s, attributed %s (%s), "
      "conservation %s, determinism %s, zero-traffic %s\n",
      slo_met_at_1x ? "ok" : "FAIL", breach_at_2x ? "ok" : "FAIL",
      attributed ? "ok" : "FAIL", cells[2].result.guilty_stage.c_str(),
      conservation ? "ok" : "FAIL", determinism ? "ok" : "FAIL",
      zero_traffic_ok ? "ok" : "FAIL");

  // ---- BENCH_PR8.json -------------------------------------------------
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value("ext_traffic");
  w.key("schema_version");
  w.value(std::uint64_t{1});
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
    w.value(static_cast<std::uint64_t>(r.response_windows.cells().size()));
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
    w.key("pass");
    w.value(c.pass);
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
  w.key("match");
  w.value(determinism);
  w.end_object();
  w.key("zero_traffic");
  w.begin_object();
  w.key("enforced");
  w.value(pins_enforced);
  w.key("phases");
  w.begin_array();
  for (const PinResult& p : pins) {
    w.begin_object();
    w.key("name");
    w.value(p.name);
    w.key("fingerprint");
    w.value(p.fingerprint);
    w.key("expected");
    w.value(p.expected);
    w.key("match");
    w.value(p.match);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("gates");
  w.begin_object();
  w.key("slo_met_at_1x");
  w.value(slo_met_at_1x);
  w.key("breach_at_2x");
  w.value(breach_at_2x);
  w.key("attributed_queue_wait_at_2x");
  w.value(attributed);
  w.key("conservation");
  w.value(conservation);
  w.key("determinism");
  w.value(determinism);
  w.key("zero_traffic");
  w.value(zero_traffic_ok);
  w.key("pass");
  w.value(pass);
  w.end_object();
  w.end_object();

  const char* out = std::getenv("SSDSE_BENCH_OUT");
  if (!out) out = "BENCH_PR8.json";
  FILE* f = std::fopen(out, "w");
  if (!f) {
    std::fprintf(stderr, "ext_traffic: cannot write %s\n", out);
    return 1;
  }
  const std::string& json = w.str();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out);

  return pass ? 0 : 1;
}
