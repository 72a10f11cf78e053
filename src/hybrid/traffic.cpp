#include "src/hybrid/traffic.hpp"

namespace ssdse {

Micros SystemTrafficTarget::serve(const Query& q) {
  const auto out = sys_.execute(q);
  const Micros background_now = sys_.background_flash_time();
  const Micros service = out.response + (background_now - background_prev_);
  background_prev_ = background_now;
  return service;
}

ClusterTrafficTarget::ClusterTrafficTarget(SearchCluster& cluster)
    : cluster_(cluster), background_prev_(background_total()) {}

Micros ClusterTrafficTarget::background_total() const {
  Micros total = micros(0);
  for (std::uint32_t s = 0; s < cluster_.num_shards(); ++s) {
    const ReplicaGroup& g = cluster_.group(s);
    for (std::size_t r = 0; r < g.num_replicas(); ++r) {
      total += g.replica(r).background_flash_time();
    }
  }
  return total;
}

Micros ClusterTrafficTarget::serve(const Query& q) {
  const auto out = cluster_.execute(q);
  const Micros background_now = background_total();
  const Micros service = out.response + (background_now - background_prev_);
  background_prev_ = background_now;
  last_coverage_ = out.coverage;

  // Critical path = the slowest included group's winning attempt +
  // broker merge (+ retry/hedge overhead when the policy stack fired).
  // With tracing off on that replica there is no trace and attribution
  // degrades to the harness pseudo-stages.
  have_trace_ = out.trace != nullptr;
  if (have_trace_) {
    combined_ = *out.trace;
    if (const telemetry::QueryTrace* b = cluster_.broker_tracer().last()) {
      for (const auto stage : {telemetry::TraceStage::kBrokerMerge,
                               telemetry::TraceStage::kBrokerRetry}) {
        const auto i = static_cast<std::size_t>(stage);
        if (!(b->touched & (1u << i))) continue;
        combined_.stage_us[i] += b->stage_us[i];
        combined_.touched |= 1u << i;
      }
    }
    combined_.total = out.response;
  }
  return service;
}

}  // namespace ssdse
