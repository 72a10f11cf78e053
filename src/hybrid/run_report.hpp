// Machine-readable run reports (DESIGN.md §9).
//
// One JSON document per run: simulated latency quantiles, per-stage
// trace summary, the Table-I situation census, per-tier cache hit
// ratios, flash wear/write-amplification counters, and a full dump of
// the metrics registry. Every bench emits one, and
// scripts/check_bench_json.py validates the schema in CI, so runs stay
// comparable across configurations and PRs.
#pragma once

#include <string>

#include "src/hybrid/cluster.hpp"
#include "src/hybrid/search_system.hpp"
#include "src/telemetry/json_writer.hpp"
#include "src/telemetry/registry.hpp"
#include "src/workload/arrival.hpp"

namespace ssdse {

/// Serialize a registry snapshot as a JSON object keyed by metric name.
/// Counters render as integers; gauges as {mean,min,max,samples};
/// histograms as {count,mean,p50,p90,p99}.
void append_registry_json(telemetry::JsonWriter& w,
                          const telemetry::RegistrySnapshot& snap);

/// Render the full telemetry report for one system. When `traffic` is
/// non-null the report gains the open-loop sections (DESIGN.md §14):
/// "traffic" (offered/served/shed conservation), "windows" (per-window
/// quantile series), "slo" (per-spec verdicts), and "attribution"
/// (per-stage tail table + worst-N samples). When `replication` is
/// non-null (cluster runs) the report gains the "replication" section
/// (DESIGN.md §15): policy knobs + retry/hedge/failover accounting,
/// the deterministic backoff schedule, and per-replica-slot health.
std::string render_run_report(const SearchSystem& sys,
                              const std::string& run_name,
                              const TrafficResult* traffic = nullptr,
                              const ReplicationSnapshot* replication = nullptr);

/// Write `json` to `path`; returns false on I/O failure.
bool write_json_file(const std::string& path, const std::string& json);

/// Write render_run_report() output to `path`; returns false on I/O
/// failure.
bool write_run_report(const SearchSystem& sys, const std::string& run_name,
                      const std::string& path,
                      const TrafficResult* traffic = nullptr,
                      const ReplicationSnapshot* replication = nullptr);

}  // namespace ssdse
