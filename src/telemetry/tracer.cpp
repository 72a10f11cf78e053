#include "src/telemetry/tracer.hpp"

#include <algorithm>

namespace ssdse::telemetry {

const char* to_string(TraceStage stage) {
  switch (stage) {
    case TraceStage::kResultProbe: return "result_probe";
    case TraceStage::kListFetchMem: return "list_fetch_mem";
    case TraceStage::kListFetchSsd: return "list_fetch_ssd";
    case TraceStage::kListFetchHdd: return "list_fetch_hdd";
    case TraceStage::kScore: return "score";
    case TraceStage::kWriteBufferFlush: return "write_buffer_flush";
    case TraceStage::kFtlGc: return "ftl_gc";
    case TraceStage::kBrokerMerge: return "broker_merge";
    case TraceStage::kIngestApply: return "ingest_apply";
    case TraceStage::kSegmentMerge: return "segment_merge";
    case TraceStage::kDaatSkip: return "daat_skip";
    case TraceStage::kBrokerRetry: return "broker_retry";
  }
  return "unknown";
}

QueryTracer::QueryTracer(std::size_t ring_capacity)
    : ring_capacity_(std::max<std::size_t>(ring_capacity, 1)) {}

void QueryTracer::begin_query(QueryId qid) {
  if (!enabled_) return;
  current_ = QueryTrace{};
  current_.query = qid;
}

void QueryTracer::add_span(TraceStage stage, Micros dur) {
  if (!enabled_) return;
  const auto i = static_cast<std::size_t>(stage);
  current_.stage_us[i] += dur;
  current_.touched |= 1u << i;
}

void QueryTracer::end_query(Micros total) {
  if (!enabled_) return;
  current_.total = total;
  for (std::size_t i = 0; i < kNumTraceStages; ++i) {
    if (!(current_.touched & (1u << i))) continue;
    hists_[i].add(current_.stage_us[i]);
    stats_[i].add(current_.stage_us[i]);
  }
  ++traced_;
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(current_);
    ring_next_ = ring_.size() % ring_capacity_;
    ring_full_ = ring_.size() == ring_capacity_;
  } else {
    ring_[ring_next_] = current_;
    ring_next_ = (ring_next_ + 1) % ring_capacity_;
  }
}

std::vector<QueryTrace> QueryTracer::recent() const {
  std::vector<QueryTrace> out;
  out.reserve(ring_.size());
  if (!ring_full_) {
    out = ring_;
    return out;
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
  }
  return out;
}

void QueryTracer::merge_aggregates(const QueryTracer& other) {
  for (std::size_t i = 0; i < kNumTraceStages; ++i) {
    hists_[i].merge(other.hists_[i]);
    stats_[i].merge(other.stats_[i]);
  }
  traced_ += other.traced_;
}

void QueryTracer::clear() {
  traced_ = 0;
  current_ = QueryTrace{};
  for (std::size_t i = 0; i < kNumTraceStages; ++i) {
    hists_[i] = LatencyHistogram{};
    stats_[i].reset();
  }
  ring_.clear();
  ring_next_ = 0;
  ring_full_ = false;
}

}  // namespace ssdse::telemetry
