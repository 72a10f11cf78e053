#include "src/telemetry/registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ssdse::telemetry {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

void MetricsRegistry::add_entry(Entry e) {
  for (const auto& existing : entries_) {
    if (existing.name == e.name) {
      throw std::invalid_argument("duplicate metric name: " + e.name);
    }
  }
  entries_.push_back(std::move(e));
}

void MetricsRegistry::counter(const std::string& name,
                              const std::uint64_t* source) {
  Entry e;
  e.name = name;
  e.kind = MetricKind::kCounter;
  e.counter_src = source;
  add_entry(std::move(e));
}

void MetricsRegistry::counter_fn(const std::string& name,
                                 std::function<std::uint64_t()> fn) {
  Entry e;
  e.name = name;
  e.kind = MetricKind::kCounter;
  e.counter_fn = std::move(fn);
  add_entry(std::move(e));
}

void MetricsRegistry::gauge(const std::string& name,
                            std::function<double()> fn) {
  Entry e;
  e.name = name;
  e.kind = MetricKind::kGauge;
  e.gauge_fn = std::move(fn);
  add_entry(std::move(e));
}

void MetricsRegistry::gauge_value(const std::string& name, double v) {
  gauge(name, [v] { return v; });
}

void MetricsRegistry::histogram(const std::string& name,
                                const LatencyHistogram* source) {
  Entry e;
  e.name = name;
  e.kind = MetricKind::kHistogram;
  e.hist_src = source;
  add_entry(std::move(e));
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  RegistrySnapshot snap;
  snap.metrics_.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSnapshot m;
    m.name = e.name;
    m.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        m.counter = e.counter_src ? *e.counter_src : e.counter_fn();
        break;
      case MetricKind::kGauge:
        m.gauge.add(e.gauge_fn());
        break;
      case MetricKind::kHistogram:
        m.hist = *e.hist_src;
        break;
    }
    snap.metrics_.push_back(std::move(m));
  }
  std::sort(snap.metrics_.begin(), snap.metrics_.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

void RegistrySnapshot::merge(const RegistrySnapshot& other) {
  std::vector<MetricSnapshot> merged;
  merged.reserve(metrics_.size() + other.metrics_.size());
  std::size_t i = 0, j = 0;
  while (i < metrics_.size() || j < other.metrics_.size()) {
    if (j == other.metrics_.size() ||
        (i < metrics_.size() && metrics_[i].name < other.metrics_[j].name)) {
      merged.push_back(std::move(metrics_[i++]));
      continue;
    }
    if (i == metrics_.size() || other.metrics_[j].name < metrics_[i].name) {
      merged.push_back(other.metrics_[j++]);
      continue;
    }
    // Same name on both sides: fold.
    MetricSnapshot m = std::move(metrics_[i++]);
    const MetricSnapshot& o = other.metrics_[j++];
    if (m.kind != o.kind) {
      throw std::invalid_argument("metric kind mismatch on merge: " + m.name);
    }
    switch (m.kind) {
      case MetricKind::kCounter:
        m.counter += o.counter;
        break;
      case MetricKind::kGauge:
        m.gauge.merge(o.gauge);
        break;
      case MetricKind::kHistogram:
        m.hist.merge(o.hist);
        break;
    }
    merged.push_back(std::move(m));
  }
  metrics_ = std::move(merged);
}

const MetricSnapshot* RegistrySnapshot::find(const std::string& name) const {
  auto it = std::lower_bound(
      metrics_.begin(), metrics_.end(), name,
      [](const MetricSnapshot& m, const std::string& n) { return m.name < n; });
  if (it == metrics_.end() || it->name != name) return nullptr;
  return &*it;
}

}  // namespace ssdse::telemetry
