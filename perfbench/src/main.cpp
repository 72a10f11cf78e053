// ssdse_perfbench: one workload, one seed, one process.
//
//   ssdse_perfbench --workload=<name> --seed=<n> --trace=<0|1> --<size>=<v>...
//
// Every size comes from the command line (perfbench/run.py passes the
// workload's definition from perfbench/workloads.json). The last line of
// stdout is the JSON result; earlier lines describe the run, including
// the fingerprint a traced run must reproduce. Exit code 0 with a
// result, 2 on bad arguments, 3 when a traced run diverged from the
// untraced path.
#include <cstdio>
#include <exception>

#include "workloads.hpp"

namespace perfbench {

void emit(Report& rep, const EndToEnd& e) {
  rep.metric("qps", e.qps, "1/s");
  rep.metric("wall_us_p50", e.wall_us_p50, "us");
  rep.metric("wall_us_p99", e.wall_us_p99, "us");
  rep.metric("setup_s", e.setup_s, "s");
  rep.metric("peak_rss_mib", e.peak_rss_mib, "MiB");
  rep.metric("sim_resp_ms_p50", e.sim_resp_ms_p50, "ms");
  rep.metric("sim_resp_ms_p99", e.sim_resp_ms_p99, "ms");
  rep.metric("hit_ratio", e.hit_ratio, "ratio");
  rep.metric("ssd_erases_per_kq", e.ssd_erases_per_kq, "1/kq");
}

void emit(Report& rep, const PerLayer& p) {
  rep.metric("workload.next_ns", p.next_ns, "ns");
  rep.metric("workload.traffic_self_ns", p.traffic_self_ns, "ns");
  rep.metric("cache.lookup_result_ns", p.lookup_result_ns, "ns");
  rep.metric("cache.fetch_list_ns", p.fetch_list_ns, "ns");
  rep.metric("cache.insert_result_ns", p.insert_result_ns, "ns");
  rep.metric("cache.drain_ms", p.drain_ms, "ms");
  rep.metric("cache.result_hit_ratio", p.result_hit_ratio, "ratio");
  rep.metric("cache.list_hit_ratio", p.list_hit_ratio, "ratio");
  rep.metric("cache.l2_hits_per_q", p.l2_hits_per_q, "1/q");
  rep.metric("cache.wb.flush_groups_per_kq", p.wb_flush_groups_per_kq,
             "1/kq");
  rep.metric("cache.stale.result_invalidations_per_kq",
             p.stale_result_invalidations_per_kq, "1/kq");
  rep.metric("ssd.nand.page_reads_per_q", p.nand_page_reads_per_q, "1/q");
  rep.metric("ssd.nand.page_programs_per_q", p.nand_page_programs_per_q,
             "1/q");
  rep.metric("ssd.nand.block_erases_per_kq", p.nand_block_erases_per_kq,
             "1/kq");
  rep.metric("ssd.gc.page_copies_per_kq", p.gc_page_copies_per_kq, "1/kq");
  rep.metric("ssd.write_amplification", p.write_amplification, "ratio");
  rep.metric("storage.hdd.list_reads_per_q", p.hdd_list_reads_per_q, "1/q");
  rep.metric("engine.score_ns", p.score_ns, "ns");
  rep.metric("engine.postings_per_score", p.postings_per_score, "count");
  rep.metric("engine.ns_per_posting", p.ns_per_posting, "ns");
  rep.metric("index.materialize_s", p.materialize_s, "s");
  rep.metric("ingest.apply_ns", p.apply_ns, "ns");
  rep.metric("ingest.merge_ms", p.merge_ms, "ms");
  rep.metric("ingest.merges_per_kq", p.merges, "1/kq");
  rep.metric("ingest.write_wall_us_p50", p.write_wall_us_p50, "us");
  rep.metric("ingest.write_wall_us_p90", p.write_wall_us_p90, "us");
  rep.metric("hybrid.serve_ns", p.serve_ns, "ns");
  rep.metric("hybrid.dispatches_per_q", p.dispatches_per_q, "1/q");
  rep.metric("hybrid.hedges_per_q", p.hedges_per_q, "1/q");
  rep.metric("hybrid.hedge_wins_per_q", p.hedge_wins_per_q, "1/q");
  rep.metric("hybrid.routed_away_per_q", p.routed_away_per_q, "1/q");
  rep.metric("hybrid.coverage_mean", p.coverage_mean, "ratio");
  rep.metric("hybrid.sim_shed_frac", p.sim_shed_frac, "ratio");
  rep.metric("telemetry.tracer_ns", p.tracer_ns, "ns");
  rep.metric("bench.trace_overhead_ratio", p.trace_overhead_ratio, "ratio");
  for (std::size_t s = 0; s < p.situation_ns.size(); ++s) {
    rep.metric("situation.s" + std::to_string(s + 1) + "_ns",
               p.situation_ns[s], "ns");
  }
}

void require_same_state(std::uint64_t fingerprint_a, const Counters& a,
                        std::uint64_t fingerprint_b, const Counters& b) {
  if (fingerprint_a == fingerprint_b) return;
  const std::string diff = first_difference(a, b);
  throw FidelityError(
      "fingerprint " + std::to_string(fingerprint_a) + " vs " +
      std::to_string(fingerprint_b) +
      (diff.empty() ? " (outputs differ)" : " (counter " + diff + ")"));
}

void fill_model_metrics(EndToEnd& e, const Counters& w,
                        std::uint64_t queries) {
  const double hits = static_cast<double>(
      get(w, "cache.l1.result.hits") + get(w, "cache.l2.result.hits") +
      get(w, "cache.l1.list.hits") + get(w, "cache.l2.list.hits"));
  e.hit_ratio = mean_of(hits, get(w, "cache.result.probes") +
                                  get(w, "cache.list.probes"));
  const auto erases = get(w, "ssd.cache.nand.block_erases");
  e.ssd_erases_per_kq = 1000.0 * mean_of(static_cast<double>(erases), queries);
}

void fill_counter_rates(PerLayer& p, const Counters& w,
                        std::uint64_t queries) {
  const auto per_q = [&](std::uint64_t n) {
    return mean_of(static_cast<double>(n), queries);
  };
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return mean_of(static_cast<double>(a), b);
  };
  p.result_hit_ratio =
      ratio(get(w, "cache.l1.result.hits") + get(w, "cache.l2.result.hits"),
            get(w, "cache.result.probes"));
  p.list_hit_ratio =
      ratio(get(w, "cache.l1.list.hits") + get(w, "cache.l2.list.hits"),
            get(w, "cache.list.probes"));
  p.l2_hits_per_q =
      per_q(get(w, "cache.l2.result.hits") + get(w, "cache.l2.list.hits"));
  p.wb_flush_groups_per_kq = 1000 * per_q(get(w, "cache.wb.flush_groups"));
  p.stale_result_invalidations_per_kq =
      1000 * per_q(get(w, "cache.stale.result_invalidations"));
  p.nand_page_reads_per_q = per_q(get(w, "ssd.cache.nand.page_reads"));
  p.nand_page_programs_per_q = per_q(get(w, "ssd.cache.nand.page_programs"));
  p.nand_block_erases_per_kq =
      1000 * per_q(get(w, "ssd.cache.nand.block_erases"));
  p.gc_page_copies_per_kq = 1000 * per_q(get(w, "ssd.cache.gc.page_copies"));
  p.write_amplification = ratio(get(w, "ssd.cache.nand.page_programs"),
                                get(w, "ssd.cache.host.writes"));
  p.hdd_list_reads_per_q = per_q(get(w, "cache.hdd.list.reads"));
  p.merges = 1000 * per_q(get(w, "ingest.merges"));
}

void check_hit_invariants(Report& rep, const Counters& w) {
  rep.check(get(w, "cache.l1.result.hits") + get(w, "cache.l2.result.hits") <=
                get(w, "cache.result.probes"),
            "result hits exceed result probes");
  rep.check(get(w, "cache.l1.list.hits") + get(w, "cache.l2.list.hits") <=
                get(w, "cache.list.probes"),
            "list hits exceed list probes");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args(argc, argv);
    const std::string workload = args.str("workload");
    const bool traced = args.u64("trace") != 0;
    Report rep = workload == "cluster_traffic"
                     ? run_cluster_workload(args, traced)
                     : run_system_workload(args, traced);
    std::printf("%s\n", rep.json().c_str());
    return 0;
  } catch (const FidelityError& e) {
    std::fprintf(stderr, "ssdse_perfbench: traced run diverged: %s\n",
                 e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ssdse_perfbench: %s\n", e.what());
    return 2;
  }
}
