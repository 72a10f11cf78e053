// MetricsRegistry: a pull-based catalogue of named metrics.
//
// The simulator's hot paths accumulate into plain `*Stats` structs
// (CacheManagerStats, FtlStats, NandStats, ...). The registry does NOT
// replace those increments — components register *pointers* (or small
// closures) over the already-maintained fields under hierarchical
// dotted names ("cache.l1.result.hits", "ssd.cache.gc.page_copies"),
// and readers take a `snapshot()` on demand. Registration therefore
// costs nothing per query; the only cost is at snapshot time.
//
// Snapshots from multiple shards merge: counters add, gauges fold into
// a StreamingStats over per-shard samples, histograms merge bucket-wise
// (congruent geometry required).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/util/stats.hpp"

namespace ssdse::telemetry {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind kind);

/// A point-in-time reading of one metric. For gauges the StreamingStats
/// holds one sample per source registry (so cross-shard merges expose
/// min/mean/max over shards); for histograms the full bucket state is
/// copied.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;
  StreamingStats gauge;
  LatencyHistogram hist;
};

/// An ordered (by name) set of metric readings, mergeable across shards.
class RegistrySnapshot {
 public:
  /// Fold `other` into this snapshot: counters sum, gauges accumulate
  /// samples, histograms merge bucket-wise. Metrics present only in one
  /// side are kept as-is. Throws std::invalid_argument if the same name
  /// has different kinds or incompatible histogram geometry.
  void merge(const RegistrySnapshot& other);

  const MetricSnapshot* find(const std::string& name) const;

  [[nodiscard]] const std::vector<MetricSnapshot>& metrics() const { return metrics_; }

 private:
  friend class MetricsRegistry;
  std::vector<MetricSnapshot> metrics_;  // sorted by name
};

class MetricsRegistry {
 public:
  /// Register a counter backed by a live field. The pointed-to value
  /// must outlive the registry (fields of heap-owned components do).
  void counter(const std::string& name, const std::uint64_t* source);

  /// Counter whose value is computed at snapshot time (e.g. a sum of
  /// two fields, or a double time accumulator rounded to integer us).
  void counter_fn(const std::string& name,
                  std::function<std::uint64_t()> fn);

  /// Gauge computed at snapshot time (ratios, wear averages, ...).
  void gauge(const std::string& name, std::function<double()> fn);

  /// Gauge with a fixed value known at registration time (e.g. a
  /// one-off build duration).
  void gauge_value(const std::string& name, double v);

  /// Histogram backed by a live LatencyHistogram.
  void histogram(const std::string& name, const LatencyHistogram* source);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Read every registered metric. Sorted by name.
  [[nodiscard]] RegistrySnapshot snapshot() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    const std::uint64_t* counter_src = nullptr;
    std::function<std::uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
    const LatencyHistogram* hist_src = nullptr;
  };

  void add_entry(Entry e);

  std::vector<Entry> entries_;
};

}  // namespace ssdse::telemetry
