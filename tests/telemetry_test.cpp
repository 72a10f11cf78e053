// Telemetry layer tests: JSON writer, metrics registry + snapshot
// merge, per-query tracer, and the end-to-end run report.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "src/hybrid/cluster.hpp"
#include "src/hybrid/run_report.hpp"
#include "src/hybrid/search_system.hpp"
#include "src/telemetry/json_writer.hpp"
#include "src/telemetry/registry.hpp"
#include "src/telemetry/tracer.hpp"

namespace ssdse {
namespace {

using telemetry::JsonWriter;
using telemetry::MetricKind;
using telemetry::MetricsRegistry;
using telemetry::QueryTrace;
using telemetry::QueryTracer;
using telemetry::RegistrySnapshot;
using telemetry::TraceStage;

// --- JsonWriter ---------------------------------------------------------

TEST(JsonWriterTest, NestedObjectsAndArrays) {
  JsonWriter w;
  w.begin_object();
  w.key("a");
  w.value(1);
  w.key("b");
  w.begin_array();
  w.value(2);
  w.value(3);
  w.end_array();
  w.key("c");
  w.begin_object();
  w.key("d");
  w.value(true);
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[2,3],"c":{"d":true}})");
}

TEST(JsonWriterTest, EscapesStringsAndNormalizesNonFinite) {
  JsonWriter w;
  w.begin_object();
  w.key("s");
  w.value(std::string("a\"b\\c\nd\te"));
  w.key("nan");
  w.value(0.0 / 0.0);
  w.key("inf");
  w.value(1.0 / 0.0);
  w.end_object();
  EXPECT_EQ(w.str(), R"({"s":"a\"b\\c\nd\te","nan":0,"inf":0})");
}

TEST(JsonWriterTest, IntegerValuesHaveNoExponent) {
  JsonWriter w;
  w.begin_array();
  w.value(std::uint64_t{9983495460346675520ull});
  w.value(std::int64_t{-42});
  w.end_array();
  EXPECT_EQ(w.str(), "[9983495460346675520,-42]");
}

// --- MetricsRegistry ----------------------------------------------------

TEST(RegistryTest, CounterTracksLiveField) {
  MetricsRegistry r;
  std::uint64_t field = 5;
  r.counter("a.hits", &field);
  field = 9;  // snapshot must read the live value, not the one at
              // registration time
  const auto snap = r.snapshot();
  const auto* m = snap.find("a.hits");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kCounter);
  EXPECT_EQ(m->counter, 9u);
}

TEST(RegistryTest, AllMetricShapes) {
  MetricsRegistry r;
  std::uint64_t c = 3;
  LatencyHistogram h;
  h.add(10.0);
  h.add(20.0);
  r.counter("c", &c);
  r.counter_fn("cf", [] { return std::uint64_t{7}; });
  r.gauge("g", [] { return 0.5; });
  r.gauge_value("gv", 2.5);
  r.histogram("h", &h);
  const auto snap = r.snapshot();
  EXPECT_EQ(snap.find("c")->counter, 3u);
  EXPECT_EQ(snap.find("cf")->counter, 7u);
  EXPECT_DOUBLE_EQ(snap.find("g")->gauge.mean(), 0.5);
  EXPECT_DOUBLE_EQ(snap.find("gv")->gauge.mean(), 2.5);
  EXPECT_EQ(snap.find("h")->hist.count(), 2u);
}

TEST(RegistryTest, SnapshotSortedByName) {
  MetricsRegistry r;
  std::uint64_t x = 0;
  r.counter("z.last", &x);
  r.counter("a.first", &x);
  r.counter("m.middle", &x);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.metrics().size(), 3u);
  EXPECT_EQ(snap.metrics()[0].name, "a.first");
  EXPECT_EQ(snap.metrics()[1].name, "m.middle");
  EXPECT_EQ(snap.metrics()[2].name, "z.last");
}

TEST(RegistryTest, DuplicateNameThrows) {
  MetricsRegistry r;
  std::uint64_t x = 0;
  r.counter("dup", &x);
  EXPECT_THROW(r.counter("dup", &x), std::invalid_argument);
  EXPECT_THROW(r.gauge_value("dup", 1.0), std::invalid_argument);
}

TEST(RegistryTest, FindMissingReturnsNull) {
  MetricsRegistry r;
  EXPECT_EQ(r.snapshot().find("nope"), nullptr);
}

// --- RegistrySnapshot::merge (cross-shard aggregation) ------------------

TEST(SnapshotMergeTest, CountersSumGaugesSampleHistsCombine) {
  // Snapshots detach from their sources, so the backing storage only
  // needs to outlive snapshot(), not the merge.
  auto make = [](std::uint64_t hits, double ratio, double lat) {
    MetricsRegistry reg;
    const std::uint64_t h = hits;
    LatencyHistogram hist;
    hist.add(lat);
    reg.counter("hits", &h);
    reg.gauge("ratio", [ratio] { return ratio; });
    reg.histogram("lat", &hist);
    return reg.snapshot();
  };
  RegistrySnapshot a = make(10, 0.2, 100.0);
  const RegistrySnapshot b = make(32, 0.8, 900.0);
  a.merge(b);
  EXPECT_EQ(a.find("hits")->counter, 42u);
  // Gauge folds shard samples: min/mean/max over shards.
  EXPECT_EQ(a.find("ratio")->gauge.count(), 2u);
  EXPECT_DOUBLE_EQ(a.find("ratio")->gauge.min(), 0.2);
  EXPECT_DOUBLE_EQ(a.find("ratio")->gauge.max(), 0.8);
  EXPECT_DOUBLE_EQ(a.find("ratio")->gauge.mean(), 0.5);
  EXPECT_EQ(a.find("lat")->hist.count(), 2u);
}

TEST(SnapshotMergeTest, DisjointNamesAreKept) {
  MetricsRegistry ra, rb;
  std::uint64_t x = 1, y = 2;
  ra.counter("only.a", &x);
  rb.counter("only.b", &y);
  RegistrySnapshot a = ra.snapshot();
  a.merge(rb.snapshot());
  ASSERT_EQ(a.metrics().size(), 2u);
  EXPECT_EQ(a.find("only.a")->counter, 1u);
  EXPECT_EQ(a.find("only.b")->counter, 2u);
}

TEST(SnapshotMergeTest, KindMismatchThrows) {
  MetricsRegistry ra, rb;
  std::uint64_t x = 1;
  ra.counter("m", &x);
  rb.gauge_value("m", 1.0);
  RegistrySnapshot a = ra.snapshot();
  EXPECT_THROW(a.merge(rb.snapshot()), std::invalid_argument);
}

TEST(SnapshotMergeTest, MergeWithSelfCopyDoublesCounters) {
  MetricsRegistry r;
  std::uint64_t x = 21;
  r.counter("c", &x);
  RegistrySnapshot a = r.snapshot();
  const RegistrySnapshot copy = r.snapshot();
  a.merge(copy);
  EXPECT_EQ(a.find("c")->counter, 42u);
}

// --- QueryTracer --------------------------------------------------------

TEST(TracerTest, SpansAccumulateAndFeedAggregates) {
  QueryTracer t;
  t.begin_query(QueryId{1});
  t.add_span(TraceStage::kResultProbe, micros(10.0));
  t.add_span(TraceStage::kListFetchHdd, micros(5000.0));
  t.add_span(TraceStage::kListFetchHdd, micros(3000.0));  // repeated stage adds
  const QueryTrace* ended = t.end_query(micros(8010.0));
  EXPECT_EQ(t.queries_traced(), 1u);
  const QueryTrace* last = t.last();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(ended, last);
  EXPECT_EQ(last->query, QueryId{1});
  EXPECT_DOUBLE_EQ(last->total.value(), 8010.0);
  EXPECT_DOUBLE_EQ(
      last->stage_us[static_cast<std::size_t>(TraceStage::kListFetchHdd)]
          .value(),
      8000.0);
  EXPECT_TRUE(last->touched_stage(TraceStage::kResultProbe));
  EXPECT_TRUE(last->touched_stage(TraceStage::kListFetchHdd));
  EXPECT_FALSE(last->touched_stage(TraceStage::kScore));
  // Untouched stages contribute nothing to aggregates.
  EXPECT_EQ(t.stage_hist(TraceStage::kScore).count(), 0u);
  EXPECT_EQ(t.stage_hist(TraceStage::kListFetchHdd).count(), 1u);
  EXPECT_DOUBLE_EQ(t.stage_hist(TraceStage::kListFetchHdd).sum(), 8000.0);
  EXPECT_EQ(t.stage_hist(TraceStage::kResultProbe).count(), 1u);
}

TEST(TracerTest, LastIsTheNewestTrace) {
  QueryTracer t;
  EXPECT_EQ(t.last(), nullptr);  // nothing traced yet
  for (QueryId q{}; q < QueryId{10}; ++q) {
    t.begin_query(q);
    t.add_span(TraceStage::kScore, micros(1.0));
    t.end_query(micros(1.0));
  }
  EXPECT_EQ(t.queries_traced(), 10u);
  ASSERT_NE(t.last(), nullptr);
  EXPECT_EQ(t.last()->query, QueryId{9});
  // Aggregates still cover all 10 queries.
  EXPECT_EQ(t.stage_hist(TraceStage::kScore).count(), 10u);
}

TEST(TracerTest, DisabledRecordsNothing) {
  QueryTracer t;
  t.set_enabled(false);
  t.begin_query(QueryId{1});
  t.add_span(TraceStage::kScore, micros(5.0));
  EXPECT_EQ(t.end_query(micros(5.0)), nullptr);
  EXPECT_EQ(t.queries_traced(), 0u);
  EXPECT_EQ(t.last(), nullptr);
  EXPECT_EQ(t.stage_hist(TraceStage::kScore).count(), 0u);
}

TEST(TracerTest, ClearResetsEverything) {
  QueryTracer t;
  for (QueryId q{}; q < QueryId{5}; ++q) {
    t.begin_query(q);
    t.add_span(TraceStage::kResultProbe, micros(1.0));
    t.end_query(micros(1.0));
  }
  t.clear();
  EXPECT_EQ(t.queries_traced(), 0u);
  EXPECT_EQ(t.last(), nullptr);
  EXPECT_EQ(t.stage_hist(TraceStage::kResultProbe).count(), 0u);
  // Still usable after clear.
  t.begin_query(QueryId{9});
  t.add_span(TraceStage::kResultProbe, micros(2.0));
  t.end_query(micros(2.0));
  EXPECT_EQ(t.queries_traced(), 1u);
  ASSERT_NE(t.last(), nullptr);
  EXPECT_EQ(t.last()->query, QueryId{9});
}

TEST(TracerTest, StageNamesAreStableSchema) {
  // scripts/check_bench_json.py hard-codes these names; renaming a stage
  // is a schema change and must update the validator + DESIGN.md §9.
  EXPECT_STREQ(to_string(TraceStage::kResultProbe), "result_probe");
  EXPECT_STREQ(to_string(TraceStage::kListFetchMem), "list_fetch_mem");
  EXPECT_STREQ(to_string(TraceStage::kListFetchSsd), "list_fetch_ssd");
  EXPECT_STREQ(to_string(TraceStage::kListFetchHdd), "list_fetch_hdd");
  EXPECT_STREQ(to_string(TraceStage::kScore), "score");
  EXPECT_STREQ(to_string(TraceStage::kWriteBufferFlush),
               "write_buffer_flush");
  EXPECT_STREQ(to_string(TraceStage::kFtlGc), "ftl_gc");
}

// --- SearchSystem integration -------------------------------------------

SystemConfig small_system() {
  SystemConfig cfg;
  cfg.set_num_docs(100'000);
  cfg.set_memory_budget(4 * MiB);
  cfg.training_queries = 1'000;
  return cfg;
}

TEST(SystemTelemetryTest, RegistryAgreesWithCacheStats) {
  SearchSystem system(small_system());
  system.run(1'500);
  const auto snap = system.telemetry_registry().snapshot();
  const auto& cs = system.cache_manager().stats();
  ASSERT_NE(snap.find("cache.result.probes"), nullptr);
  EXPECT_EQ(snap.find("cache.result.probes")->counter, cs.result_lookups);
  EXPECT_EQ(snap.find("cache.l1.result.hits")->counter, cs.result_hits_mem);
  EXPECT_EQ(snap.find("cache.l2.result.hits")->counter, cs.result_hits_ssd);
  EXPECT_EQ(snap.find("cache.list.probes")->counter, cs.list_lookups);
  EXPECT_EQ(snap.find("query.response.us")->hist.count(),
            system.metrics().queries());
  // Hits never exceed probes; the validator asserts the same invariant
  // on every emitted report.
  EXPECT_LE(snap.find("cache.l1.result.hits")->counter +
                snap.find("cache.l2.result.hits")->counter,
            snap.find("cache.result.probes")->counter);
  // The values a run report used to compute itself are gauges now.
  EXPECT_DOUBLE_EQ(snap.find("query.throughput_qps")->gauge.mean(),
                   system.throughput_qps());
  EXPECT_DOUBLE_EQ(
      snap.find("query.situation.s9.mean_us")->gauge.mean(),
      system.metrics().situation_mean_time(Situation::kS9_ListsHdd).value());
  // An analytic index served the queries.
  ASSERT_NE(snap.find("index.materialized"), nullptr);
  EXPECT_EQ(snap.find("index.materialized")->gauge.mean(), 0.0);
}

TEST(SystemTelemetryTest, TracerCoversEveryQuery) {
  SearchSystem system(small_system());
  system.run(1'200);
  EXPECT_EQ(system.tracer().queries_traced(), 1'200u);
  // Every query probes the result cache and its trace total matches the
  // simulated response distribution.
  EXPECT_EQ(system.tracer().stage_hist(TraceStage::kResultProbe).count(),
            1'200u);
  EXPECT_GT(system.tracer().stage_hist(TraceStage::kScore).count(), 0u);
}

TEST(SystemTelemetryTest, SetTracingFalseStopsRecording) {
  SearchSystem system(small_system());
  system.set_tracing(false);
  system.run(500);
  EXPECT_EQ(system.tracer().queries_traced(), 0u);
  EXPECT_EQ(system.metrics().queries(), 500u);  // metrics unaffected
}

TEST(SystemTelemetryTest, RunReportRendersValidSkeleton) {
  SearchSystem system(small_system());
  system.run(1'000);
  const std::string json =
      render_run_report("unit", system.telemetry_registry().snapshot());
  // Spot-check the schema markers the validator keys on. Full schema
  // validation happens in tier-1 via scripts/check_bench_json.py.
  EXPECT_NE(json.find(R"("report":"telemetry")"), std::string::npos);
  EXPECT_NE(json.find(R"("schema_version":2)"), std::string::npos);
  EXPECT_NE(json.find(R"("run":"unit")"), std::string::npos);
  EXPECT_NE(json.find(R"("metrics":{)"), std::string::npos);
  EXPECT_NE(json.find(R"("query.response.us":{"count":1000,)"),
            std::string::npos);
  EXPECT_NE(json.find(R"("query.situation.s9.mean_us":{)"),
            std::string::npos);
  // Every number comes from the registry: no hand-copied sections.
  for (const char* copy : {R"("simulated")", R"("stages")",
                           R"("situations")", R"("cache")", R"("flash")",
                           R"("faults")", R"("queries")"}) {
    EXPECT_EQ(json.find(copy), std::string::npos) << copy;
  }
  // Balanced braces (cheap structural sanity without a JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ClusterTelemetryTest, SnapshotSumsShardCounters) {
  ClusterConfig cfg;
  cfg.num_shards = 3;
  cfg.total_docs = 300'000;
  cfg.shard_template.set_memory_budget(4 * MiB);
  cfg.shard_template.training_queries = 500;
  SearchCluster cluster(cfg);
  cluster.run(600);
  const auto merged = cluster.telemetry_snapshot();
  std::uint64_t probes = 0;
  for (std::uint32_t s = 0; s < cluster.num_shards(); ++s) {
    probes += cluster.shard(s).cache_manager().stats().result_lookups;
  }
  ASSERT_NE(merged.find("cache.result.probes"), nullptr);
  EXPECT_EQ(merged.find("cache.result.probes")->counter, probes);
  // Gauges carry one sample per shard.
  ASSERT_NE(merged.find("query.throughput_qps"), nullptr);
  EXPECT_EQ(merged.find("query.throughput_qps")->gauge.count(), 3u);
}

}  // namespace
}  // namespace ssdse
