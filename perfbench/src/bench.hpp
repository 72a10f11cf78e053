// Shared pieces of the serving-path benchmark: the host clock, sample
// statistics, result fingerprints, counter snapshots, the in-memory span
// log of traced runs, and the one-line JSON result.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/engine/result.hpp"
#include "src/hybrid/system_config.hpp"
#include "src/telemetry/registry.hpp"
#include "src/util/config.hpp"
#include "src/workload/query_log.hpp"

namespace perfbench {

// ssdse-lint: allow(nondeterminism) host wall time is what is measured
using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Command-line knobs (`--key=value`). Every size a workload reads must
/// be given, and every given key must be read: a missing or stray key is
/// an error, never a silent default.
class Args {
 public:
  Args(int argc, const char* const* argv);
  [[nodiscard]] std::string str(const std::string& key) const;
  [[nodiscard]] std::uint64_t u64(const std::string& key) const;
  [[nodiscard]] double num(const std::string& key) const;
  [[nodiscard]] ssdse::Bytes bytes(const std::string& key) const;
  /// Throws when a given key was never read.
  void reject_unused() const;

 private:
  void need(const std::string& key) const;
  ssdse::Config cfg_;
  mutable std::set<std::string> read_;
};

/// Nearest-rank percentile (q in [0,1]) of `v`; reorders `v`.
double percentile(std::vector<double>& v, double q);
/// Median of a small sample (copy).
double median(std::vector<double> v);

/// Mean of `sum` over `n` samples; 0 when there are none.
inline double mean_of(double sum, std::uint64_t n) {
  return n ? sum / static_cast<double>(n) : 0.0;
}

/// Per-query wall split by the state of the program's own tracer, which
/// a traced run's first pass flips every kTracerToggle queries.
inline constexpr std::uint64_t kTracerToggle = 256;
struct TracerSplit {
  static bool on_at(std::uint64_t query) {
    return (query / kTracerToggle) % 2 == 0;
  }
  void add(bool on, double wall_ns) {
    ns[on] += wall_ns;
    ++n[on];
  }
  [[nodiscard]] double mean(bool on) const { return mean_of(ns[on], n[on]); }

  double ns[2] = {0, 0};
  std::uint64_t n[2] = {0, 0};
};

/// Equal slices of every timed loop, and how many of them count for host
/// times when each holds enough queries (see quiet_blocks).
inline constexpr std::uint64_t kBlocks = 40;
inline constexpr std::uint64_t kQuietBlocks = 10;
inline constexpr std::uint64_t kMinBlockQueries = 1000;

/// One slice of a timed loop: the queries [begin, end) and the
/// operations per second it sustained.
struct Block {
  std::size_t begin = 0;
  std::size_t end = 0;
  double ops_per_s = 0;
};

/// Host-time figures over the quiet blocks of a timed loop. The host is
/// a VM whose neighbours' cache and memory load comes and goes within
/// seconds and moves per-query cost by up to a third; the kQuietBlocks
/// blocks with the highest throughput are the part of the run they
/// disturbed least. That holds only while a block averages over many
/// queries: with fewer than kMinBlockQueries per block, throughput
/// follows which queries a block drew, so every block counts. `qps` is
/// the median throughput of the counted blocks; the latency percentiles
/// pool their per-query walls.
struct Quiet {
  double qps = 0;
  double wall_us_p50 = 0;
  double wall_us_p99 = 0;
  std::uint64_t samples = 0;
};
Quiet quiet_blocks(const std::vector<double>& wall_us,
                   std::vector<Block> blocks);

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();

/// FNV-1a style fold used for every fingerprint.
inline void fold(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
}
inline void fold_result(std::uint64_t& h, const ssdse::ResultEntry& r) {
  fold(h, r.docs.size());
  for (const ssdse::ScoredDoc& d : r.docs) {
    fold(h, d.doc.raw());
    fold(h, std::bit_cast<std::uint32_t>(d.score));
  }
}
inline void fold_double(std::uint64_t& h, double v) {
  fold(h, std::bit_cast<std::uint64_t>(v));
}
inline constexpr std::uint64_t kFnvSeed = 14695981039346656037ull;

/// Independent input streams (churn, arrivals, faults) derived from the
/// one --seed.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t h = kFnvSeed;
  fold(h, seed);
  fold(h, stream);
  return h;
}

/// A generator over `log`, advanced to where --seed starts the run (up
/// to 2^20 queries in). The query universe (which terms each distinct
/// query has) stays fixed by the log config's own seed, so seeds differ
/// by sample, not by population.
std::unique_ptr<ssdse::QueryLogGenerator> query_stream(
    const ssdse::QueryLogConfig& log, std::uint64_t seed);

/// Cache-SSD geometry covering the configured cache capacities plus
/// `slack` logical bytes, sized the way SearchSystem sizes it by default
/// (which uses 64 MiB of slack): blocks for the logical space at the
/// FTL's over-provisioning, plus 16 spare.
void size_cache_ssd(ssdse::SystemConfig& cfg, ssdse::Bytes slack);

/// Exact doc-id + score-bit equality of two results.
bool same_result(const ssdse::ResultEntry& a, const ssdse::ResultEntry& b);

/// Every counter of a registry snapshot under the cache, SSD, HDD and
/// ingest prefixes: the state a traced run must reproduce bit for bit.
using Counters = std::map<std::string, std::uint64_t>;
Counters model_counters(const ssdse::telemetry::RegistrySnapshot& snap);
/// `after - before`, per name (a name missing from `before` counts 0).
Counters delta(const Counters& after, const Counters& before);
std::uint64_t get(const Counters& c, const std::string& name);
void fold_counters(std::uint64_t& h, const Counters& c);
/// First differing counter name, or "" when equal.
std::string first_difference(const Counters& a, const Counters& b);

/// Layers the traced run times from outside the program.
enum class Layer : std::uint8_t {
  kWorkloadNext,
  kCacheLookupResult,
  kCacheFetchList,
  kEngineScore,
  kCacheInsertResult,
  kCacheDrain,
  kIngestApply,
  kIngestMerge,
  kHybridServe,
  kWorkloadTraffic,
};
inline constexpr std::size_t kNumLayers = 10;
const char* layer_name(Layer l);

/// Spans a traced run keeps verbatim and writes out.
inline constexpr std::size_t kSpanCapacity = 200'000;

/// In-memory span log: every span feeds per-layer aggregates; the first
/// `capacity` spans are also kept verbatim (query id, layer, start,
/// duration) and written out when the run ends.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

  void add(std::uint64_t query, Layer layer, std::uint64_t start_ns,
           std::uint64_t end_ns) {
    const std::uint64_t dur = end_ns - start_ns;
    auto& a = agg_[static_cast<std::size_t>(layer)];
    ++a.count;
    a.ns += dur;
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back({query, start_ns, dur, layer});
    }
  }
  [[nodiscard]] std::uint64_t count(Layer l) const {
    return agg_[static_cast<std::size_t>(l)].count;
  }
  [[nodiscard]] std::uint64_t total_ns(Layer l) const {
    return agg_[static_cast<std::size_t>(l)].ns;
  }
  /// Mean span duration in ns (0 when the layer never ran).
  [[nodiscard]] double mean_ns(Layer l) const {
    const auto& a = agg_[static_cast<std::size_t>(l)];
    return a.count ? static_cast<double>(a.ns) / static_cast<double>(a.count)
                   : 0.0;
  }
  /// Tab-separated dump: query, layer, start (ns from the first span),
  /// duration (ns). False when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t query;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    Layer layer;
  };
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
  };
  std::vector<Span> spans_;
  Agg agg_[kNumLayers];
};

/// RAII span: times one call into a layer when a log is attached.
class Span {
 public:
  Span(SpanLog* log, std::uint64_t query, Layer layer)
      : log_(log), query_(query), layer_(layer),
        start_(log != nullptr ? now_ns() : 0) {}
  ~Span() {
    if (log_ != nullptr) log_->add(query_, layer_, start_, now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::uint64_t query_;
  Layer layer_;
  std::uint64_t start_;
};

/// What one run reports: the verdict plus named metrics with units.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Count one checked operation; a false `ok` is a failure.
  void check(bool ok, const char* what);
  /// The result line (last line of stdout).
  [[nodiscard]] std::string json() const;
};

/// Spans file for a traced run, inside the working directory.
std::string spans_path(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
