// TrafficTarget adapters (DESIGN.md §14): bind the open-loop traffic
// harness (src/workload/arrival.hpp) to a single index server or a
// sharded cluster. The harness layer cannot depend on hybrid, so the
// concrete targets live here.
#pragma once

#include "src/hybrid/cluster.hpp"
#include "src/hybrid/search_system.hpp"
#include "src/workload/arrival.hpp"

namespace ssdse {

/// One index server as an open-loop traffic target. Service time is
/// the query's response plus the background flash time it triggered
/// (the device is shared; under open-loop load that time must be
/// paid). Construct after any setup traffic so one-time preload flash
/// work is not charged to the first query.
class SystemTrafficTarget final : public TrafficTarget {
 public:
  explicit SystemTrafficTarget(SearchSystem& sys)
      : sys_(sys), background_prev_(sys.background_flash_time()) {}

  Micros serve(const Query& q) override;

  [[nodiscard]] const telemetry::QueryTrace* last_trace() const override {
    return sys_.tracer().last();
  }

 private:
  SearchSystem& sys_;
  Micros background_prev_;
};

/// A sharded cluster as an open-loop traffic target. Service time is
/// the broker-observed response plus the summed background flash delta
/// across all replicas of all shards (hedges and retries burn device
/// time on whichever replica served them). The reported trace is the
/// span breakdown of the slowest included group's winning attempt plus
/// the broker's merge and retry/hedge spans, so tail attribution sees
/// the critical path of the answer. Coverage of the last broker merge
/// feeds coverage-floored SLOs (partial results burn error budget,
/// DESIGN.md §15).
class ClusterTrafficTarget final : public TrafficTarget {
 public:
  explicit ClusterTrafficTarget(SearchCluster& cluster);

  Micros serve(const Query& q) override;

  [[nodiscard]] const telemetry::QueryTrace* last_trace() const override {
    return have_trace_ ? &combined_ : nullptr;
  }

  [[nodiscard]] double last_coverage() const override {
    return last_coverage_;
  }

 private:
  [[nodiscard]] Micros background_total() const;

  SearchCluster& cluster_;
  Micros background_prev_;
  telemetry::QueryTrace combined_;
  bool have_trace_ = false;
  double last_coverage_ = 1.0;
};

}  // namespace ssdse
