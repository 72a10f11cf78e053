// QueryTracer: per-query span recording over simulated time.
//
// A query's simulated latency is the sum of stage costs the engine adds
// to its `Micros` accumulator (result probe, per-tier list fetches,
// scoring) plus background flash work it triggers. The tracer attributes
// those microseconds to a fixed span taxonomy and keeps (a) per-stage
// LatencyHistogram + StreamingStats aggregates for the whole run and
// (b) a bounded ring buffer of complete per-query traces for tail
// inspection.
//
// The one switch is `set_enabled`: with it off, instrumentation reduces
// to one branch per span site.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/stats.hpp"
#include "src/util/types.hpp"

namespace ssdse::telemetry {

/// Span taxonomy. One entry per place a query's simulated microseconds
/// can go; kept small and fixed so per-query storage is a flat array.
enum class TraceStage : std::uint8_t {
  kResultProbe = 0,    // result-cache probe (RM/SM lookup incl. SSD read)
  kListFetchMem,       // posting list served from RAM (QM hit)
  kListFetchSsd,       // posting list served from the SSD list cache
  kListFetchHdd,       // posting list fetched from HDD
  kScore,              // Scorer's term-at-a-time scoring CPU time
  kWriteBufferFlush,   // background flash writes minus GC (flush cost)
  kFtlGc,              // FTL garbage-collection time the query triggered
  kBrokerMerge,        // cluster broker: fan-out RTT + top-K merge
  kIngestApply,        // live-index ingest/delete apply (segment + log)
  kSegmentMerge,       // live-segment fold into the materialized index
  kDaatSkip,           // scoring time saved by block-max prune jumps
  kBrokerRetry,        // broker tail tolerance: failed-attempt waits,
                       // backoff pauses, hedge overhead (DESIGN.md §15)
};

inline constexpr std::size_t kNumTraceStages = 12;

const char* to_string(TraceStage stage);

/// One completed query trace: total simulated latency plus per-stage
/// attribution. Stages the query never touched stay at 0 and are
/// excluded from aggregate histograms via the touched mask.
struct QueryTrace {
  QueryId query{};
  Micros total = micros(0);
  std::array<Micros, kNumTraceStages> stage_us{};
  std::uint32_t touched = 0;  // bitmask over TraceStage

  bool touched_stage(TraceStage s) const {
    return touched & (1u << static_cast<unsigned>(s));
  }
};

class QueryTracer {
 public:
  explicit QueryTracer(std::size_t ring_capacity = 1024);

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void begin_query(QueryId qid);

  /// Attribute `dur` simulated microseconds to `stage` for the current
  /// query. Durations accumulate (a stage may be hit repeatedly, e.g.
  /// one list fetch per term).
  void add_span(TraceStage stage, Micros dur);

  /// Close the current query, feed per-stage aggregates, and push the
  /// trace into the ring buffer.
  void end_query(Micros total);

  [[nodiscard]] std::uint64_t queries_traced() const { return traced_; }

  const LatencyHistogram& stage_hist(TraceStage s) const {
    return hists_[static_cast<std::size_t>(s)];
  }
  const StreamingStats& stage_stats(TraceStage s) const {
    return stats_[static_cast<std::size_t>(s)];
  }

  /// Ring contents, oldest first. At most `ring_capacity` traces.
  [[nodiscard]] std::vector<QueryTrace> recent() const;

  /// The most recently completed trace, or nullptr when none has been
  /// recorded (tracing disabled, or no query ended yet). The pointer is
  /// invalidated by the next end_query()/clear().
  [[nodiscard]] const QueryTrace* last() const {
    if (ring_.empty()) return nullptr;
    return &ring_[(ring_next_ + ring_.size() - 1) % ring_.size()];
  }

  /// Fold another tracer's per-stage aggregates into this one
  /// (cross-shard report). Ring buffers are per-shard and not merged.
  void merge_aggregates(const QueryTracer& other);

  void clear();

 private:
  bool enabled_ = true;
  std::uint64_t traced_ = 0;
  QueryTrace current_;
  std::array<LatencyHistogram, kNumTraceStages> hists_;
  std::array<StreamingStats, kNumTraceStages> stats_;
  std::vector<QueryTrace> ring_;
  std::size_t ring_capacity_;
  std::size_t ring_next_ = 0;
  bool ring_full_ = false;
};

}  // namespace ssdse::telemetry
