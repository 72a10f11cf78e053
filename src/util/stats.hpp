// Streaming statistics and fixed-bucket histograms.
//
// Every metric in the simulator (response time, per-device latency,
// cache occupancy) is accumulated with these; nothing retains per-sample
// vectors in the hot path.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/types.hpp"

namespace ssdse {

/// Welford-style running mean/variance plus min/max/sum.
class StreamingStats {
 public:
  void add(double x);
  /// Histogram/statistics boundary (DESIGN.md §16): simulated latencies
  /// leave the `Micros` unit here, explicitly, and nowhere implicitly.
  void add(Micros x) { add(x.value()); }
  void merge(const StreamingStats& other);
  void reset();

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Log-scaled histogram for latency-like positive values; supports
/// approximate quantiles with bounded relative error.
class LatencyHistogram {
 public:
  /// Buckets grow geometrically from `lo` by factor `growth` until `hi`.
  explicit LatencyHistogram(double lo = 0.1, double hi = 1e8,
                            double growth = 1.15);

  void add(double x);
  /// Histogram boundary (DESIGN.md §16): the one sanctioned implicit
  /// exit from the `Micros` unit into bucket space.
  void add(Micros x) { add(x.value()); }
  [[nodiscard]] std::uint64_t count() const { return total_; }
  /// Sum of every added value, in the order added.
  [[nodiscard]] double sum() const { return sum_; }
  double quantile(double q) const;  // q in [0,1]
  [[nodiscard]] double mean() const {
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
  }

  /// Merge another histogram (cross-shard telemetry aggregation). Both
  /// histograms must share one bucket geometry (lo/growth/size); merging
  /// splits of a sample stream is bucket-exact, so quantiles of the
  /// merge equal quantiles of the whole. Throws std::invalid_argument on
  /// a geometry mismatch.
  void merge(const LatencyHistogram& other);

  /// Render "p50=... p90=... p99=..." for reports.
  [[nodiscard]] std::string summary() const;

 private:
  std::size_t bucket_for(double x) const;

  double lo_;
  double log_growth_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Frequency counter over integer keys with sorted extraction; used by
/// the trace analyzer and query-log analysis (not a hot path).
class Counter {
 public:
  void add(std::uint64_t key, std::uint64_t weight = 1);
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t distinct() const { return map_.size(); }
  std::uint64_t count_of(std::uint64_t key) const;

  /// (key, count) pairs sorted by descending count (ties by key).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted() const;

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> map_;
  std::uint64_t total_ = 0;
};

}  // namespace ssdse
