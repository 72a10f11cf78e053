// Extension bench: fault injection and graceful degradation
// (DESIGN.md §10). Sweeps NAND/HDD error rates over the paper's
// two-level cell and checks the two robustness headlines:
//
//  1. *Results never change.* Injected faults may cost latency and hit
//     ratio, but every query's merged top-K must stay bit-identical to
//     the fault-free baseline — a failed SSD-cache read degrades into
//     the miss path, which computes the same answer from the HDD.
//  2. *The breaker trips and recovers.* Under a sustained flash error
//     burst the SSD-cache circuit breaker opens (queries bypass the
//     cache instead of paying doomed flash reads), probes the cache
//     after a cooldown, and re-closes when probes succeed.
//
// Gates: fingerprints_identical, breaker_recovers, and the cluster
// cell's cluster_books_balance and cluster_full_coverage. Emits the
// bench artifact (SSDSE_BENCH_OUT, default BENCH_ext_faults.json)
// validated by scripts/check_bench_json.py, and a telemetry run report
// for the last faulty cell when SSDSE_TELEMETRY_OUT is set (exercises
// the report's "faults" section).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/hybrid/cluster.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

struct FaultCell {
  const char* name;
  double ssd_unc = 0;        // NAND uncorrectable-read rate (cache SSD)
  double ssd_transient = 0;  // NAND ECC-retry rate
  double ssd_program = 0;    // NAND program-failure rate (BBM)
  double hdd_unc = 0;        // HDD uncorrectable-read rate
  double hdd_spike = 0;      // HDD latency-spike rate
};

struct CellResult {
  const FaultCell* cell = nullptr;
  std::uint64_t fingerprint = 0;
  Micros mean_response = micros(0);
  std::uint64_t ssd_read_errors = 0;
  std::uint64_t hdd_read_errors = 0;
  std::uint64_t read_retries = 0;
  std::uint64_t grown_bad_blocks = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t breaker_reopens = 0;
  std::uint64_t breaker_bypassed = 0;
  std::string breaker_state = "closed";
};

SystemConfig cell_config(const FaultCell& c) {
  SystemConfig cfg = paper_system(CachePolicy::kCbslru, 2'000'000, 6 * MiB);
  cfg.cache_ssd.nand.fault.read_unc_rate = c.ssd_unc;
  cfg.cache_ssd.nand.fault.read_transient_rate = c.ssd_transient;
  cfg.cache_ssd.nand.fault.program_fail_rate = c.ssd_program;
  cfg.hdd_faults.read_unc_rate = c.hdd_unc;
  cfg.hdd_faults.latency_spike_rate = c.hdd_spike;
  // A breaker sized so the severe cell's error burst demonstrably trips
  // it *and* lets probe successes re-close it within the run.
  cfg.cache.breaker.window = 64;
  cfg.cache.breaker.min_samples = 16;
  cfg.cache.breaker.threshold = 0.5;
  cfg.cache.breaker.cooldown_ops = 128;
  cfg.cache.breaker.probes = 2;
  return cfg;
}

CellResult run_cell(const FaultCell& c, std::uint64_t queries,
                    bool emit_report) {
  SearchSystem sys(cell_config(c));
  std::uint64_t checksum = 0;
  Micros sum = micros(0);
  for (std::uint64_t i = 0; i < queries; ++i) {
    const auto out = sys.execute(sys.generator().next());
    sum += out.response;
    for (const ScoredDoc& d : out.result.docs) {
      std::uint32_t bits;
      std::memcpy(&bits, &d.score, sizeof bits);
      checksum = checksum * 1099511628211ull + d.doc.raw() + bits;
    }
  }
  sys.drain();
  if (emit_report) maybe_write_report(sys, "ext_faults");

  CellResult r;
  r.cell = &c;
  r.fingerprint = checksum;
  r.mean_response = queries ? sum / static_cast<double>(queries) : Micros{};
  const CacheManagerStats& cm = sys.cache_manager().stats();
  r.ssd_read_errors = cm.ssd_read_errors;
  r.hdd_read_errors = cm.hdd_read_errors;
  const auto& br = sys.cache_manager().breaker();
  r.breaker_trips = br.stats().trips;
  r.breaker_closes = br.stats().closes;
  r.breaker_reopens = br.stats().reopens;
  r.breaker_bypassed = br.stats().bypassed_ops;
  r.breaker_state = CircuitBreaker::to_string(br.state());
  if (const Ssd* ssd = sys.cache_ssd()) {
    r.read_retries = ssd->ftl().stats().read_retries;
    r.grown_bad_blocks = ssd->ftl().stats().grown_bad_blocks;
  }
  return r;
}

// ---- Cluster cell: broker fault accounting over a sharded fleet ------
//
// One shard's HDD index store misbehaves; the clean shard does not. The
// broker's observed_faults (per-attempt counter deltas summed at the
// ReplicaGroup) must balance the shard-side fault counters exactly, and
// with no deadline the faults cost latency only: coverage stays 1.0 and
// nothing is dropped (graceful degradation, DESIGN.md §10/§15).
struct ClusterCellResult {
  std::uint64_t queries = 0;
  std::uint64_t broker_observed_faults = 0;
  std::uint64_t shard_side_faults = 0;
  std::uint64_t faulty_shard_errors = 0;
  std::uint64_t clean_shard_errors = 0;
  std::uint64_t shards_dropped = 0;
  double coverage_mean = 0;
  bool books_balance = false;
  bool full_coverage = false;
};

ClusterCellResult run_cluster_cell(std::uint64_t queries) {
  ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.total_docs = 400'000;
  cfg.shard_template.set_memory_budget(4 * MiB);
  cfg.shard_template.training_queries = 500;
  ReplicaFaultOverride faulty;
  faulty.shard = 1;
  faulty.replica = 0;
  faulty.hdd.read_unc_rate = 0.05;
  faulty.hdd.latency_spike_rate = 0.01;
  cfg.replica_faults.push_back(faulty);

  SearchCluster cluster(cfg);
  cluster.run(queries);

  ClusterCellResult r;
  r.queries = queries;
  const auto snap = cluster.replication_snapshot();
  r.broker_observed_faults = snap.observed_faults;
  r.coverage_mean = snap.coverage_mean;
  r.shards_dropped = snap.shards_dropped;
  for (std::uint32_t s = 0; s < cluster.num_shards(); ++s) {
    const SearchSystem& sys = cluster.shard(s);
    const CacheManagerStats& cm = sys.cache_manager().stats();
    std::uint64_t errs = cm.ssd_read_errors + cm.hdd_read_errors;
    if (const FaultyDevice* hdd = sys.faulty_hdd()) {
      errs += hdd->fault_stats().write_fails;
    }
    r.shard_side_faults += errs;
    (s == 1 ? r.faulty_shard_errors : r.clean_shard_errors) = errs;
  }
  r.books_balance = r.broker_observed_faults == r.shard_side_faults &&
                    r.faulty_shard_errors > 0 && r.clean_shard_errors == 0;
  r.full_coverage = r.coverage_mean == 1.0 && r.shards_dropped == 0;
  return r;
}

}  // namespace

int main() {
  print_environment("Extension — fault injection & graceful degradation");
  const auto queries = default_queries(20'000);
  std::printf("%llu queries per cell, CBSLRU two-level hierarchy\n\n",
              static_cast<unsigned long long>(queries));

  const std::vector<FaultCell> kCells = {
      {"baseline", 0, 0, 0, 0, 0},
      {"light", 0.001, 0.01, 0, 0.001, 0.0005},
      {"moderate", 0.02, 0.05, 0.0005, 0.01, 0.002},
      // Breaker demo. The rate is per NAND *page* and an entry read
      // merges its pages' statuses to the most severe, so the
      // entry-level error rate is much higher than 8 % — hot enough to
      // trip the breaker repeatedly, cool enough that two consecutive
      // probe reads still succeed and re-close it (recovery).
      {"severe", 0.08, 0.1, 0.001, 0, 0},
  };

  std::vector<CellResult> results;
  for (const FaultCell& c : kCells) {
    std::printf("running %-9s (ssd unc %.3f, hdd unc %.3f)...\n", c.name,
                c.ssd_unc, c.hdd_unc);
    results.push_back(
        run_cell(c, queries, /*emit_report=*/&c == &kCells.back()));
  }
  std::printf("\n");

  Table t({"cell", "mean (ms)", "ssd errs", "hdd errs", "retries",
           "bad blks", "trips", "closes", "bypassed", "fingerprint"});
  for (const CellResult& r : results) {
    t.add_row({r.cell->name, fmt_ms(r.mean_response),
               Table::num(static_cast<double>(r.ssd_read_errors), 0),
               Table::num(static_cast<double>(r.hdd_read_errors), 0),
               Table::num(static_cast<double>(r.read_retries), 0),
               Table::num(static_cast<double>(r.grown_bad_blocks), 0),
               Table::num(static_cast<double>(r.breaker_trips), 0),
               Table::num(static_cast<double>(r.breaker_closes), 0),
               Table::num(static_cast<double>(r.breaker_bypassed), 0),
               std::to_string(r.fingerprint)});
  }
  t.print();

  const std::uint64_t baseline = results.front().fingerprint;
  bool match = true;
  for (const CellResult& r : results) match = match && r.fingerprint == baseline;
  const CellResult& severe = results.back();
  const bool breaker_ok = severe.breaker_trips > 0 && severe.breaker_closes > 0;

  // Cluster cell: one faulty HDD in a two-shard fleet; the broker's
  // fault books must balance the shard counters and coverage must hold.
  std::printf("\nrunning cluster cell (faulty HDD on shard 1)...\n");
  const ClusterCellResult cluster =
      run_cluster_cell(std::max<std::uint64_t>(queries / 10, 1'000));
  std::printf(
      "  broker observed %llu faults, shards report %llu "
      "(faulty shard %llu, clean shard %llu): books %s\n"
      "  coverage %.4f with %llu drops: %s\n",
      static_cast<unsigned long long>(cluster.broker_observed_faults),
      static_cast<unsigned long long>(cluster.shard_side_faults),
      static_cast<unsigned long long>(cluster.faulty_shard_errors),
      static_cast<unsigned long long>(cluster.clean_shard_errors),
      cluster.books_balance ? "balance" : "DO NOT BALANCE",
      cluster.coverage_mean,
      static_cast<unsigned long long>(cluster.shards_dropped),
      cluster.full_coverage ? "graceful degradation held"
                            : "COVERAGE LOST");

  std::printf(
      "\nresult integrity: every cell's fingerprint %s the fault-free\n"
      "baseline — injected faults cost latency, never answers.\n"
      "breaker: %llu trips, %llu re-closes, %llu reopens in the severe\n"
      "cell (%s).\n",
      match ? "matches" : "DIVERGES FROM",
      static_cast<unsigned long long>(severe.breaker_trips),
      static_cast<unsigned long long>(severe.breaker_closes),
      static_cast<unsigned long long>(severe.breaker_reopens),
      breaker_ok ? "tripped and recovered" : "DID NOT trip and recover");

  return finish_bench(
      "ext_faults",
      {{"fingerprints_identical", match},
       {"breaker_recovers", breaker_ok},
       {"cluster_books_balance", cluster.books_balance},
       {"cluster_full_coverage", cluster.full_coverage}},
      [&](telemetry::JsonWriter& w) {
        w.key("queries");
        w.value(queries);
        w.key("cells");
        w.begin_array();
        for (const CellResult& r : results) {
          w.begin_object();
          w.key("name");
          w.value(r.cell->name);
          w.key("fingerprint");
          w.value(r.fingerprint);
          w.key("mean_response_ms");
          w.value(r.mean_response / kMillisecond);
          w.key("ssd_read_errors");
          w.value(r.ssd_read_errors);
          w.key("hdd_read_errors");
          w.value(r.hdd_read_errors);
          w.key("read_retries");
          w.value(r.read_retries);
          w.key("grown_bad_blocks");
          w.value(r.grown_bad_blocks);
          w.key("breaker");
          w.begin_object();
          w.key("trips");
          w.value(r.breaker_trips);
          w.key("closes");
          w.value(r.breaker_closes);
          w.key("reopens");
          w.value(r.breaker_reopens);
          w.key("bypassed_ops");
          w.value(r.breaker_bypassed);
          w.key("state");
          w.value(r.breaker_state);
          w.end_object();
          w.end_object();
        }
        w.end_array();
        w.key("cluster");
        w.begin_object();
        w.key("queries");
        w.value(cluster.queries);
        w.key("broker_observed_faults");
        w.value(cluster.broker_observed_faults);
        w.key("shard_side_faults");
        w.value(cluster.shard_side_faults);
        w.key("faulty_shard_errors");
        w.value(cluster.faulty_shard_errors);
        w.key("clean_shard_errors");
        w.value(cluster.clean_shard_errors);
        w.key("shards_dropped");
        w.value(cluster.shards_dropped);
        w.key("coverage_mean");
        w.value(cluster.coverage_mean);
        w.end_object();
      });
}
