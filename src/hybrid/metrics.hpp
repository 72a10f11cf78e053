// Run metrics: response-time distribution, throughput, and the Table-I
// situation census (S1-S9).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "src/cache/policy.hpp"
#include "src/telemetry/registry.hpp"
#include "src/util/stats.hpp"
#include "src/util/types.hpp"

namespace ssdse {

/// Table I situations. R = result, I = inverted lists; the suffix names
/// the storage tiers that served the query.
enum class Situation : std::uint8_t {
  kS1_ResultMemory = 0,
  kS2_ResultSsd,
  kS3_ListsMemory,
  kS4_ListsMemorySsd,
  kS5_ListsSsd,
  kS6_ListsMemoryHdd,
  kS7_ListsMemorySsdHdd,
  kS8_ListsSsdHdd,
  kS9_ListsHdd,
};
constexpr std::size_t kNumSituations = 9;

const char* to_string(Situation s);

/// Classify a query outcome: result tier (if the result cache answered)
/// or the set of tiers that served the inverted lists.
Situation classify_situation(bool result_hit, Tier result_tier,
                             bool used_memory, bool used_ssd, bool used_hdd);

/// Warm-restart accounting (src/recovery): the Fig. 15/16-style cold
/// cliff comparison. `steady` is the pre-restart steady-state combined
/// hit ratio; `warm`/`cold` measure the same early window (first N
/// queries) after a recovered vs. fresh start.
struct WarmRestartReport {
  std::uint64_t window_queries = 0;
  double steady_hit_ratio = 0;
  double warm_hit_ratio = 0;
  double cold_hit_ratio = 0;
  Micros warm_mean_response = micros(0);
  Micros cold_mean_response = micros(0);
  /// Simulated flash time the restore spent re-adopting blocks.
  Micros recovery_flash_time = micros(0);
  /// Host wall-clock of snapshot parse + journal replay.
  double recovery_wall_ms = 0;

  /// How far the recovered system's early window sits below the
  /// pre-restart steady state (the acceptance bar is <= 0.05).
  [[nodiscard]] double warm_vs_steady_gap() const {
    return steady_hit_ratio - warm_hit_ratio;
  }
};

class RunMetrics {
 public:
  void record(Situation s, Micros response);

  [[nodiscard]] std::uint64_t queries() const { return hist_.count(); }
  [[nodiscard]] Micros mean_response() const { return micros(hist_.mean()); }
  [[nodiscard]] const LatencyHistogram& histogram() const { return hist_; }

  std::uint64_t situation_count(Situation s) const {
    return counts_[static_cast<std::size_t>(s)];
  }
  double situation_probability(Situation s) const;
  Micros situation_mean_time(Situation s) const;

  /// Foreground time only; see throughput_qps for the full accounting.
  [[nodiscard]] Micros total_response_time() const {
    return micros(hist_.sum());
  }

  /// Query-level cache hit ratio: fraction of queries answered without
  /// touching the HDD index store — i.e. situations S1-S5 of Table I.
  [[nodiscard]] double cache_served_fraction() const;

  /// Data-request coverage (the Fig. 14 metric): every query implies one
  /// result request plus one request per term; a result-cache hit covers
  /// them all, otherwise each cache-served list covers itself. Uniform
  /// across configurations (RC-only / IC-only / RIC).
  void record_coverage(std::uint64_t covered, std::uint64_t implied) {
    covered_requests_ += covered;
    implied_requests_ += implied;
  }
  [[nodiscard]] double request_coverage() const {
    return implied_requests_
               ? static_cast<double>(covered_requests_) /
                     static_cast<double>(implied_requests_)
               : 0.0;
  }

  /// Closed-loop throughput: queries / (response time + background flash
  /// time the cache writes consumed on the shared device).
  double throughput_qps(Micros background_time) const;

  /// Expose the accumulators under `prefix` ("query" gives
  /// query.response.us, query.situation.s1..s9 and their .mean_us,
  /// query.coverage.*). The registry keeps pointers into this object,
  /// which must therefore outlive it and stay at a fixed address.
  void register_into(telemetry::MetricsRegistry& registry,
                     const std::string& prefix) const;

 private:
  LatencyHistogram hist_{0.1, 1e8, 1.2};  // every response: count, sum
  std::array<std::uint64_t, kNumSituations> counts_{};
  std::array<Micros, kNumSituations> time_sums_{};
  std::uint64_t covered_requests_ = 0;
  std::uint64_t implied_requests_ = 0;
};

}  // namespace ssdse
