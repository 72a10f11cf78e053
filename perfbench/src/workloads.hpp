// The four workloads and the metric sets every run prints. A metric a
// workload cannot measure (hybrid counters on a single server, ingest
// timings without churn) is printed as 0 so every run carries the full
// set; perfbench/workloads.json says which metrics apply where.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {

/// A traced run whose program state diverged from the untraced path:
/// the benchmark exits non-zero without a result.
struct FidelityError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// End-to-end metrics of an untraced run.
struct EndToEnd {
  double qps = 0;
  double wall_us_p50 = 0;
  double wall_us_p99 = 0;
  double setup_s = 0;
  double peak_rss_mib = 0;
  double sim_resp_ms_p50 = 0;
  double sim_resp_ms_p99 = 0;
  double hit_ratio = 0;
  double ssd_erases_per_kq = 0;
};
void emit(Report& rep, const EndToEnd& e);

/// Per-layer metrics of a traced run.
struct PerLayer {
  // workload
  double next_ns = 0;
  double traffic_self_ns = 0;
  // cache
  double lookup_result_ns = 0;
  double fetch_list_ns = 0;
  double insert_result_ns = 0;
  double drain_ms = 0;
  double result_hit_ratio = 0;
  double list_hit_ratio = 0;
  double l2_hits_per_q = 0;
  double wb_flush_groups_per_kq = 0;
  double stale_result_invalidations_per_kq = 0;
  // ssd / ftl / storage
  double nand_page_reads_per_q = 0;
  double nand_page_programs_per_q = 0;
  double nand_block_erases_per_kq = 0;
  double gc_page_copies_per_kq = 0;
  double write_amplification = 0;
  double hdd_list_reads_per_q = 0;
  // engine / index
  double score_ns = 0;
  double postings_per_score = 0;
  double ns_per_posting = 0;
  double materialize_s = 0;
  // ingest
  double apply_ns = 0;
  double merge_ms = 0;
  double merges = 0;
  double write_wall_us_p50 = 0;
  double write_wall_us_p90 = 0;
  // hybrid
  double serve_ns = 0;
  double dispatches_per_q = 0;
  double hedges_per_q = 0;
  double hedge_wins_per_q = 0;
  double routed_away_per_q = 0;
  double coverage_mean = 0;
  double sim_shed_frac = 0;
  // telemetry and the benchmark's own tracing
  double tracer_ns = 0;
  double trace_overhead_ratio = 0;
  /// Host ns per query by Table-I situation S1..S9.
  std::array<double, 9> situation_ns{};
};
void emit(Report& rep, const PerLayer& p);

/// Throws FidelityError unless a traced run's layer pass (b) ended with
/// its execute pass's (a) fingerprint and model counters.
void require_same_state(std::uint64_t fingerprint_a, const Counters& a,
                        std::uint64_t fingerprint_b, const Counters& b);

/// hit_ratio and ssd_erases_per_kq of a timed window.
void fill_model_metrics(EndToEnd& e, const Counters& window,
                        std::uint64_t queries);

/// Model counters over a timed window, as the rates both metric sets use.
void fill_counter_rates(PerLayer& p, const Counters& window,
                        std::uint64_t queries);
/// Per-tier hits never exceed probes; one check per tier.
void check_hit_invariants(Report& rep, const Counters& window);

Report run_system_workload(const Args& args, bool traced);
Report run_cluster_workload(const Args& args, bool traced);

}  // namespace perfbench
