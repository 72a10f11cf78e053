#include "src/hybrid/run_report.hpp"

#include <algorithm>
#include <cstdio>

namespace ssdse {

namespace {

void append_tier_block(telemetry::JsonWriter& w, std::uint64_t probes,
                       std::uint64_t l1_hits, std::uint64_t l2_hits,
                       double hit_ratio) {
  w.begin_object();
  w.key("probes");
  w.value(probes);
  w.key("l1_hits");
  w.value(l1_hits);
  w.key("l2_hits");
  w.value(l2_hits);
  w.key("misses");
  w.value(probes - l1_hits - l2_hits);
  w.key("hit_ratio");
  w.value(hit_ratio);
  w.end_object();
}

void append_quantiles(telemetry::JsonWriter& w, const LatencyHistogram& h) {
  w.key("p50_us");
  w.value(h.quantile(0.50));
  w.key("p90_us");
  w.value(h.quantile(0.90));
  w.key("p99_us");
  w.value(h.quantile(0.99));
}

// Open-loop traffic sections (DESIGN.md §14). Emitted only when the
// run came from the arrival harness.
void append_traffic_json(telemetry::JsonWriter& w, const TrafficResult& t) {
  w.key("traffic");
  w.begin_object();
  w.key("offered");
  w.value(t.offered);
  w.key("served");
  w.value(t.served);
  w.key("shed");
  w.value(t.shed);
  w.key("outliers");
  w.value(t.outliers);
  w.key("partial");
  w.value(t.partial);
  w.key("servers");
  w.value(static_cast<std::uint64_t>(t.servers));
  w.key("queue_capacity");
  w.value(static_cast<std::uint64_t>(t.queue_capacity));
  w.key("horizon_us");
  w.value(t.horizon.value());
  w.key("response");
  w.begin_object();
  w.key("mean_us");
  w.value(t.response_hist.mean());
  append_quantiles(w, t.response_hist);
  w.key("p999_us");
  w.value(t.response_hist.quantile(0.999));
  w.end_object();
  w.key("queue_wait");
  w.begin_object();
  w.key("mean_us");
  w.value(t.wait_hist.mean());
  append_quantiles(w, t.wait_hist);
  w.key("p999_us");
  w.value(t.wait_hist.quantile(0.999));
  w.end_object();
  w.key("service");
  w.begin_object();
  w.key("mean_us");
  w.value(t.service_hist.mean());
  append_quantiles(w, t.service_hist);
  w.key("p999_us");
  w.value(t.service_hist.quantile(0.999));
  w.end_object();
  w.end_object();

  // Per-window quantile series. Long runs are capped; "emitted" vs
  // "count" records the truncation explicitly (no silent caps).
  constexpr std::size_t kMaxWindowsEmitted = 512;
  const auto& cells = t.response_windows.cells();
  const std::size_t emitted = std::min(cells.size(), kMaxWindowsEmitted);
  w.key("windows");
  w.begin_object();
  w.key("width_us");
  w.value(t.response_windows.width().value());
  w.key("count");
  w.value(static_cast<std::uint64_t>(cells.size()));
  w.key("emitted");
  w.value(static_cast<std::uint64_t>(emitted));
  w.key("total_samples");
  w.value(t.response_windows.total());
  w.key("series");
  w.begin_array();
  for (std::size_t i = 0; i < emitted; ++i) {
    const telemetry::WindowCell& c = cells[i];
    w.begin_object();
    w.key("index");
    w.value(c.index);
    w.key("offered");
    w.value(t.offered_windows.at(c.index));
    w.key("shed");
    w.value(t.shed_windows.at(c.index));
    w.key("completed");
    w.value(c.hist.count());
    w.key("mean_us");
    w.value(c.hist.mean());
    append_quantiles(w, c.hist);
    w.key("p999_us");
    w.value(c.hist.quantile(0.999));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("slo");
  w.begin_array();
  for (const SloReport& s : t.slo) {
    w.begin_object();
    w.key("name");
    w.value(s.spec.name);
    w.key("quantile");
    w.value(s.spec.quantile);
    w.key("threshold_us");
    w.value(s.spec.threshold_us);
    w.key("compliance_windows");
    w.value(static_cast<std::uint64_t>(s.spec.compliance_windows));
    w.key("state");
    w.value(telemetry::to_string(s.state));
    w.key("windows");
    w.value(s.windows);
    w.key("good");
    w.value(s.good);
    w.key("bad");
    w.value(s.bad);
    w.key("trailing_events");
    w.value(s.trailing_events);
    w.key("trailing_bad");
    w.value(s.trailing_bad);
    w.key("budget_events");
    w.value(s.budget_events);
    w.key("burn_slow");
    w.value(s.burn_slow);
    w.key("max_burn_fast");
    w.value(s.max_burn_fast);
    w.key("breach_windows");
    w.value(s.breach_windows);
    w.key("first_breach_window");
    w.value(s.first_breach_window);
    w.key("transitions");
    w.value(s.transitions);
    w.end_object();
  }
  w.end_array();

  // Tail attribution: per-stage distribution over served queries plus
  // the worst-N reservoir (capped for the report; "samples" is the
  // full reservoir size).
  w.key("attribution");
  w.begin_object();
  w.key("guilty_stage");
  w.value(t.guilty_stage);
  w.key("samples");
  w.value(static_cast<std::uint64_t>(t.worst.size()));
  w.key("stages");
  w.begin_array();
  for (std::size_t i = 0; i < kNumAttrStages; ++i) {
    if (t.stage_counts[i] == 0) continue;
    w.begin_object();
    w.key("stage");
    w.value(attr_stage_name(i));
    w.key("count");
    w.value(t.stage_counts[i]);
    w.key("mean_us");
    w.value(t.stage_hists[i].mean());
    append_quantiles(w, t.stage_hists[i]);
    w.key("p999_us");
    w.value(t.stage_hists[i].quantile(0.999));
    w.end_object();
  }
  w.end_array();
  constexpr std::size_t kMaxWorstEmitted = 8;
  w.key("worst");
  w.begin_array();
  for (std::size_t i = 0; i < std::min(t.worst.size(), kMaxWorstEmitted);
       ++i) {
    const TailSample& s = t.worst[i];
    w.begin_object();
    w.key("query");
    w.value(s.query.raw());
    w.key("outlier");
    w.value(s.outlier);
    w.key("arrival_us");
    w.value(s.arrival.value());
    w.key("wait_us");
    w.value(s.wait.value());
    w.key("service_us");
    w.value(s.service.value());
    w.key("response_us");
    w.value(s.response.value());
    w.key("stages");
    w.begin_object();
    for (std::size_t j = 0; j < telemetry::kNumTraceStages; ++j) {
      if (s.stage_us[j] <= Micros{}) continue;
      w.key(attr_stage_name(j));
      w.value(s.stage_us[j].value());
    }
    if (s.untraced > Micros{}) {
      w.key("other");
      w.value(s.untraced.value());
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

// Replication + tail-tolerance section (DESIGN.md §15). Emitted only
// for cluster runs; the validator cross-checks the accounting
// (retries + hedges <= dispatches, coverage in [0,1], monotone backoff
// schedule).
void append_replication_json(telemetry::JsonWriter& w,
                             const ReplicationSnapshot& rs) {
  w.key("replication");
  w.begin_object();
  w.key("groups");
  w.value(static_cast<std::uint64_t>(rs.groups));
  w.key("replication_factor");
  w.value(static_cast<std::uint64_t>(rs.replication_factor));
  w.key("policy_active");
  w.value(rs.policy_active);
  w.key("queries");
  w.value(rs.queries);
  w.key("dispatches");
  w.value(rs.dispatches);
  w.key("retries");
  w.value(rs.retries);
  w.key("hedges");
  w.value(rs.hedges);
  w.key("hedge_wins");
  w.value(rs.hedge_wins);
  w.key("failovers");
  w.value(rs.failovers);
  w.key("routing_changes");
  w.value(rs.routing_changes);
  w.key("shards_dropped");
  w.value(rs.shards_dropped);
  w.key("shards_failed");
  w.value(rs.shards_failed);
  w.key("observed_faults");
  w.value(rs.observed_faults);
  w.key("coverage_mean");
  w.value(rs.coverage_mean);
  w.key("backoff_schedule_us");
  w.begin_array();
  for (const Micros pause : rs.backoff_schedule) w.value(pause.value());
  w.end_array();
  w.key("replicas");
  w.begin_array();
  for (std::size_t r = 0; r < rs.slots.size(); ++r) {
    const ReplicationSnapshot::Slot& slot = rs.slots[r];
    w.begin_object();
    w.key("slot");
    w.value(static_cast<std::uint64_t>(r));
    w.key("attempts");
    w.value(slot.attempts);
    w.key("faults");
    w.value(slot.faults);
    w.key("breaker_trips");
    w.value(slot.breaker_trips);
    w.key("breaker_reopens");
    w.value(slot.breaker_reopens);
    w.key("breaker_closes");
    w.value(slot.breaker_closes);
    w.key("breakers_open");
    w.value(static_cast<std::uint64_t>(slot.breakers_open));
    w.key("ewma_us_mean");
    w.value(slot.ewma_us_mean);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void append_registry_json(telemetry::JsonWriter& w,
                          const telemetry::RegistrySnapshot& snap) {
  w.begin_object();
  for (const auto& m : snap.metrics()) {
    w.key(m.name);
    switch (m.kind) {
      case telemetry::MetricKind::kCounter:
        w.value(m.counter);
        break;
      case telemetry::MetricKind::kGauge:
        w.begin_object();
        w.key("mean");
        w.value(m.gauge.mean());
        w.key("min");
        w.value(m.gauge.min());
        w.key("max");
        w.value(m.gauge.max());
        w.key("samples");
        w.value(m.gauge.count());
        w.end_object();
        break;
      case telemetry::MetricKind::kHistogram:
        w.begin_object();
        w.key("count");
        w.value(m.hist.count());
        w.key("mean");
        w.value(m.hist.mean());
        w.key("p50");
        w.value(m.hist.quantile(0.50));
        w.key("p90");
        w.value(m.hist.quantile(0.90));
        w.key("p99");
        w.value(m.hist.quantile(0.99));
        w.end_object();
        break;
    }
  }
  w.end_object();
}

std::string render_run_report(const SearchSystem& sys,
                              const std::string& run_name,
                              const TrafficResult* traffic,
                              const ReplicationSnapshot* replication) {
  using telemetry::TraceStage;
  telemetry::JsonWriter w;
  const RunMetrics& rm = sys.metrics();
  const CacheManagerStats& cs = sys.cache_manager().stats();

  w.begin_object();
  w.key("report");
  w.value("telemetry");
  w.key("schema_version");
  w.value(std::uint64_t{1});
  w.key("run");
  w.value(run_name);
  w.key("queries");
  w.value(rm.queries());
  w.key("tracing");
  w.value(sys.tracer().enabled());

  w.key("simulated");
  w.begin_object();
  w.key("mean_response_us");
  w.value(rm.mean_response().value());
  append_quantiles(w, rm.histogram());
  w.key("throughput_qps");
  w.value(sys.throughput_qps());
  w.key("background_flash_us");
  w.value(sys.background_flash_time().value());
  w.end_object();

  // Per-stage trace summary. Stages a run never touched are omitted;
  // with tracing compiled out or disabled the object is empty.
  w.key("stages");
  w.begin_object();
  const telemetry::QueryTracer& tracer = sys.tracer();
  for (std::size_t i = 0; i < telemetry::kNumTraceStages; ++i) {
    const auto stage = static_cast<TraceStage>(i);
    const StreamingStats& st = tracer.stage_stats(stage);
    if (st.count() == 0) continue;
    w.key(telemetry::to_string(stage));
    w.begin_object();
    w.key("count");
    w.value(st.count());
    w.key("total_us");
    w.value(st.sum());
    w.key("mean_us");
    w.value(st.mean());
    append_quantiles(w, tracer.stage_hist(stage));
    w.end_object();
  }
  w.end_object();

  // Table-I situation census.
  w.key("situations");
  w.begin_array();
  for (std::size_t i = 0; i < kNumSituations; ++i) {
    const auto s = static_cast<Situation>(i);
    w.begin_object();
    char key[8];
    std::snprintf(key, sizeof(key), "s%zu", i + 1);
    w.key("key");
    w.value(key);
    w.key("name");
    w.value(to_string(s));
    w.key("count");
    w.value(rm.situation_count(s));
    w.key("mean_us");
    w.value(rm.situation_mean_time(s).value());
    w.end_object();
  }
  w.end_array();

  w.key("cache");
  w.begin_object();
  w.key("result");
  append_tier_block(w, cs.result_lookups, cs.result_hits_mem,
                    cs.result_hits_ssd, cs.result_hit_ratio());
  w.key("list");
  append_tier_block(w, cs.list_lookups, cs.list_hits_mem, cs.list_hits_ssd,
                    cs.list_hit_ratio());
  w.key("combined_hit_ratio");
  w.value(cs.hit_ratio());
  w.key("request_coverage");
  w.value(rm.request_coverage());
  w.end_object();

  w.key("flash");
  w.begin_object();
  const Ssd* ssd = sys.cache_ssd();
  w.key("present");
  w.value(ssd != nullptr);
  if (ssd != nullptr) {
    const FtlStats& fs = ssd->ftl().stats();
    const NandStats& ns = ssd->nand().stats();
    w.key("host_reads");
    w.value(fs.host_reads);
    w.key("host_writes");
    w.value(fs.host_writes);
    w.key("host_trims");
    w.value(fs.host_trims);
    w.key("gc_invocations");
    w.value(fs.gc_invocations);
    w.key("gc_page_copies");
    w.value(fs.gc_page_copies);
    w.key("gc_busy_us");
    w.value(fs.gc_busy.value());
    w.key("page_reads");
    w.value(ns.page_reads);
    w.key("page_programs");
    w.value(ns.page_programs);
    w.key("block_erases");
    w.value(ns.block_erases);
    w.key("write_amplification");
    w.value(fs.write_amplification(ns));
    w.key("mean_erase_count");
    w.value(ssd->nand().mean_erase_count());
    w.key("max_erase_count");
    w.value(static_cast<std::uint64_t>(ssd->nand().max_erase_count()));
  }
  w.end_object();

  // Fault injection & graceful degradation (DESIGN.md §10). All-zero
  // (and breaker "closed") in a fault-free run.
  w.key("faults");
  w.begin_object();
  w.key("ssd_read_errors");
  w.value(cs.ssd_read_errors);
  w.key("hdd_read_errors");
  w.value(cs.hdd_read_errors);
  const CircuitBreaker& br = sys.cache_manager().breaker();
  w.key("breaker");
  w.begin_object();
  w.key("state");
  w.value(CircuitBreaker::to_string(br.state()));
  w.key("trips");
  w.value(br.stats().trips);
  w.key("reopens");
  w.value(br.stats().reopens);
  w.key("closes");
  w.value(br.stats().closes);
  w.key("bypassed_ops");
  w.value(br.stats().bypassed_ops);
  w.key("bypassed_probes");
  w.value(cs.breaker_bypassed_probes);
  w.key("bypassed_inserts");
  w.value(cs.breaker_bypassed_inserts);
  w.end_object();
  if (ssd != nullptr) {
    const FtlStats& fs = ssd->ftl().stats();
    w.key("flash");
    w.begin_object();
    w.key("read_retries");
    w.value(fs.read_retries);
    w.key("uncorrectable_reads");
    w.value(fs.uncorrectable_reads);
    w.key("program_failures");
    w.value(fs.program_failures);
    w.key("remapped_writes");
    w.value(fs.remapped_writes);
    w.key("grown_bad_blocks");
    w.value(fs.grown_bad_blocks);
    w.end_object();
  }
  if (const FaultyDevice* fh = sys.faulty_hdd()) {
    const FaultyDeviceStats& hf = fh->fault_stats();
    w.key("hdd");
    w.begin_object();
    w.key("read_uncs");
    w.value(hf.read_uncs);
    w.key("read_retries");
    w.value(hf.read_retries);
    w.key("write_fails");
    w.value(hf.write_fails);
    w.key("latency_spikes");
    w.value(hf.latency_spikes);
    w.end_object();
  }
  w.end_object();

  // Live index (DESIGN.md §12). Present only when cfg.ingest.enabled.
  if (const ingest::LiveIndex* li = sys.live_index()) {
    const IngestStats& is = sys.ingest_stats();
    w.key("ingest");
    w.begin_object();
    w.key("docs");
    w.value(is.docs);
    w.key("deletes");
    w.value(is.deletes);
    w.key("delete_misses");
    w.value(is.delete_misses);
    w.key("merges");
    w.value(is.merges);
    w.key("merged_terms");
    w.value(is.merged_terms);
    w.key("merged_postings");
    w.value(is.merged_postings);
    w.key("replayed_records");
    w.value(is.replayed_records);
    w.key("replay_torn_bytes");
    w.value(is.replay_torn_bytes);
    w.key("apply_us");
    w.value(is.apply_time.value());
    w.key("merge_us");
    w.value(is.merge_time.value());
    w.key("segment_postings");
    w.value(li->segment().total_postings());
    w.key("segment_arena_bytes");
    w.value(li->segment().arena_bytes());
    w.key("deleted_docs");
    w.value(li->deleted_docs());
    w.key("stale");
    w.begin_object();
    w.key("result_invalidations");
    w.value(cs.stale_result_invalidations);
    w.key("list_invalidations");
    w.value(cs.stale_list_invalidations);
    w.key("ssd_result_misses");
    w.value(cs.stale_ssd_result_misses);
    w.key("ssd_list_misses");
    w.value(cs.stale_ssd_list_misses);
    const SsdListCache* slc = sys.cache_manager().ssd_lists();
    w.key("ssd_list_marks");
    w.value(slc != nullptr ? slc->stats().stale_marks : std::uint64_t{0});
    w.end_object();
    w.end_object();
  }

  if (traffic != nullptr) append_traffic_json(w, *traffic);
  if (replication != nullptr) append_replication_json(w, *replication);

  w.key("metrics");
  append_registry_json(w, sys.telemetry_registry().snapshot());

  w.end_object();
  return w.str();
}

bool write_json_file(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

bool write_run_report(const SearchSystem& sys, const std::string& run_name,
                      const std::string& path, const TrafficResult* traffic,
                      const ReplicationSnapshot* replication) {
  return write_json_file(
      path, render_run_report(sys, run_name, traffic, replication));
}

}  // namespace ssdse
