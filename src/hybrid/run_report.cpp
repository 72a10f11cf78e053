#include "src/hybrid/run_report.hpp"

#include <algorithm>
#include <cstdio>

#include "src/telemetry/json_writer.hpp"

namespace ssdse {

namespace {

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

}  // namespace

std::string render_run_report(const std::string& run_name,
                              const telemetry::RegistrySnapshot& metrics,
                              const TrafficResult* traffic,
                              const ReplicationSnapshot* replication) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("report");
  w.value("telemetry");
  w.key("schema_version");
  w.value(std::uint64_t{2});
  w.key("run");
  w.value(run_name);
  if (traffic != nullptr) append_traffic_json(w, *traffic);
  if (replication != nullptr) append_replication_json(w, *replication);
  w.key("metrics");
  append_registry_json(w, metrics);
  w.end_object();
  return w.str();
}

bool write_json_file(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ssdse
