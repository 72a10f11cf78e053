// Machine-readable run reports (DESIGN.md §9).
//
// One JSON document per run. Its numbers come from one source, a
// metrics registry snapshot: one system's registry, or
// SearchCluster::telemetry_snapshot() for a whole cluster. Open-loop
// and cluster runs add the sections the registry does not hold (traffic
// conservation, SLO windows, tail attribution, broker accounting).
// scripts/check_bench_json.py validates the schema and the registry's
// invariants, so runs stay comparable across configurations.
#pragma once

#include <string>

#include "src/hybrid/cluster.hpp"
#include "src/telemetry/registry.hpp"
#include "src/workload/arrival.hpp"

namespace ssdse {

/// Render the telemetry report
///   {"report": "telemetry", "schema_version": 2, "run", <sections>,
///    "metrics": {name: value}}
/// where "metrics" dumps `metrics` (counters as integers, gauges as
/// {mean,min,max,samples}, histograms as {count,mean,p50,p90,p99}).
/// When `traffic` is non-null the report gains the open-loop sections
/// (DESIGN.md §14): "traffic" (offered/served/shed conservation),
/// "windows" (per-window quantile series), "slo" (per-spec verdicts),
/// and "attribution" (per-stage tail table + worst-N samples). When
/// `replication` is non-null (cluster runs) it gains "replication"
/// (DESIGN.md §15): policy knobs, retry/hedge/failover accounting, the
/// deterministic backoff schedule, and per-replica-slot health.
std::string render_run_report(const std::string& run_name,
                              const telemetry::RegistrySnapshot& metrics,
                              const TrafficResult* traffic = nullptr,
                              const ReplicationSnapshot* replication = nullptr);

/// Write `json` to `path`; returns false on I/O failure.
bool write_json_file(const std::string& path, const std::string& json);

}  // namespace ssdse
