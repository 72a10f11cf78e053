#include "src/telemetry/tracer.hpp"

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
    case TraceStage::kBrokerRetry: return "broker_retry";
  }
  return "unknown";
}

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

const QueryTrace* QueryTracer::end_query(Micros total) {
  if (!enabled_) return nullptr;
  current_.total = total;
  for (std::size_t i = 0; i < kNumTraceStages; ++i) {
    if (!(current_.touched & (1u << i))) continue;
    hists_[i].add(current_.stage_us[i]);
  }
  ++traced_;
  last_ = current_;
  return &last_;
}

void QueryTracer::clear() {
  traced_ = 0;
  current_ = QueryTrace{};
  hists_.fill(LatencyHistogram{});
}

}  // namespace ssdse::telemetry
