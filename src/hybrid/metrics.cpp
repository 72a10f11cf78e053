#include "src/hybrid/metrics.hpp"

namespace ssdse {

const char* to_string(Situation s) {
  switch (s) {
    case Situation::kS1_ResultMemory: return "S1 R:memory";
    case Situation::kS2_ResultSsd: return "S2 R:SSD";
    case Situation::kS3_ListsMemory: return "S3 I:memory";
    case Situation::kS4_ListsMemorySsd: return "S4 I:memory+SSD";
    case Situation::kS5_ListsSsd: return "S5 I:SSD";
    case Situation::kS6_ListsMemoryHdd: return "S6 I:memory+HDD";
    case Situation::kS7_ListsMemorySsdHdd: return "S7 I:memory+SSD+HDD";
    case Situation::kS8_ListsSsdHdd: return "S8 I:SSD+HDD";
    case Situation::kS9_ListsHdd: return "S9 I:HDD";
  }
  return "?";
}

Situation classify_situation(bool result_hit, Tier result_tier,
                             bool used_memory, bool used_ssd,
                             bool used_hdd) {
  if (result_hit) {
    return result_tier == Tier::kMemory ? Situation::kS1_ResultMemory
                                        : Situation::kS2_ResultSsd;
  }
  if (used_memory && used_ssd && used_hdd) {
    return Situation::kS7_ListsMemorySsdHdd;
  }
  if (used_memory && used_ssd) return Situation::kS4_ListsMemorySsd;
  if (used_memory && used_hdd) return Situation::kS6_ListsMemoryHdd;
  if (used_ssd && used_hdd) return Situation::kS8_ListsSsdHdd;
  if (used_memory) return Situation::kS3_ListsMemory;
  if (used_ssd) return Situation::kS5_ListsSsd;
  return Situation::kS9_ListsHdd;
}

void RunMetrics::record(Situation s, Micros response) {
  hist_.add(response);
  counts_[static_cast<std::size_t>(s)] += 1;
  time_sums_[static_cast<std::size_t>(s)] += response;
}

double RunMetrics::situation_probability(Situation s) const {
  const auto total = hist_.count();
  return total ? static_cast<double>(counts_[static_cast<std::size_t>(s)]) /
                     static_cast<double>(total)
               : 0.0;
}

Micros RunMetrics::situation_mean_time(Situation s) const {
  const auto n = counts_[static_cast<std::size_t>(s)];
  return n ? time_sums_[static_cast<std::size_t>(s)] /
                 static_cast<double>(n)
           : Micros{};
}

double RunMetrics::cache_served_fraction() const {
  const auto total = hist_.count();
  if (total == 0) return 0.0;
  std::uint64_t served = 0;
  for (const Situation s :
       {Situation::kS1_ResultMemory, Situation::kS2_ResultSsd,
        Situation::kS3_ListsMemory, Situation::kS4_ListsMemorySsd,
        Situation::kS5_ListsSsd}) {
    served += counts_[static_cast<std::size_t>(s)];
  }
  return static_cast<double>(served) / static_cast<double>(total);
}

void RunMetrics::register_into(telemetry::MetricsRegistry& registry,
                               const std::string& prefix) const {
  registry.histogram(prefix + ".response.us", &hist_);
  for (std::size_t i = 0; i < kNumSituations; ++i) {
    const std::string situation =
        prefix + ".situation.s" + std::to_string(i + 1);
    registry.counter(situation, &counts_[i]);
    registry.gauge(situation + ".mean_us", [this, i] {
      return situation_mean_time(static_cast<Situation>(i)).value();
    });
  }
  registry.counter(prefix + ".coverage.covered", &covered_requests_);
  registry.counter(prefix + ".coverage.implied", &implied_requests_);
}

double RunMetrics::throughput_qps(Micros background_time) const {
  const Micros total = micros(hist_.sum()) + background_time;
  return total > Micros{} ? static_cast<double>(hist_.count()) /
                         (total / kSecond)
                   : 0.0;
}

}  // namespace ssdse
