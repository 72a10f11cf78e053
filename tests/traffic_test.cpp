#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/telemetry/slo.hpp"
#include "src/telemetry/tracer.hpp"
#include "src/telemetry/windowed.hpp"
#include "src/workload/arrival.hpp"
#include "src/workload/query_log.hpp"

namespace ssdse {
namespace {

using telemetry::SloSpec;
using telemetry::SloState;
using telemetry::SloTracker;
using telemetry::WindowedCounter;
using telemetry::WindowedSeries;
using telemetry::window_index;

// --- Windowed telemetry -------------------------------------------------

TEST(WindowedTest, IndexRolloverAtExactBucketBoundary) {
  // A sample landing exactly on k * width belongs to window k, not k-1:
  // windows are [k*width, (k+1)*width).
  EXPECT_EQ(window_index(micros(0), kSecond), 0u);
  EXPECT_EQ(window_index(kSecond - micros(1), kSecond), 0u);
  EXPECT_EQ(window_index(kSecond, kSecond), 1u);
  EXPECT_EQ(window_index(2 * kSecond, kSecond), 2u);
  EXPECT_EQ(window_index(2 * kSecond + micros(1), kSecond), 2u);
  // Negative simulated time clamps to window 0 (no negative indices).
  EXPECT_EQ(window_index(micros(-5.0), kSecond), 0u);
}

TEST(WindowedTest, SeriesRolloverKeepsWindowsDisjoint) {
  WindowedSeries s(kSecond);
  s.add(kSecond - micros(1), 10.0);  // last instant of window 0
  s.add(kSecond, 20.0);      // first instant of window 1
  s.add(kSecond + micros(1), 30.0);
  ASSERT_NE(s.cell(0), nullptr);
  ASSERT_NE(s.cell(1), nullptr);
  EXPECT_EQ(s.cell(0)->hist.count(), 1u);
  EXPECT_EQ(s.cell(1)->hist.count(), 2u);
  EXPECT_EQ(s.total(), 3u);
  EXPECT_EQ(s.last_index(), 1u);
}

TEST(WindowedTest, OutOfOrderCompletionsStaySorted) {
  // Completions can land out of window order (a long query started in
  // window 0 finishes after a short one started in window 1).
  WindowedSeries s(kSecond);
  s.add(3 * kSecond, 1.0);
  s.add(Micros{}, 2.0);
  s.add(kSecond, 3.0);
  const auto& cells = s.cells();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      cells.begin(), cells.end(),
      [](const auto& a, const auto& b) { return a.index < b.index; }));
  EXPECT_EQ(s.last_index(), 3u);
}

TEST(WindowedTest, EmptyWindowHasNoCellAndZeroQuantile) {
  WindowedSeries s(kSecond);
  s.add(Micros{}, 5.0);
  s.add(2 * kSecond, 7.0);  // window 1 never sees a sample
  EXPECT_EQ(s.cell(1), nullptr);
  // Convention: an empty window's quantiles are 0 (matching
  // LatencyHistogram::quantile on an empty histogram).
  LatencyHistogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.quantile(0.99), 0.0);
}

TEST(WindowedTest, MergePartiallyFilledShards) {
  // Shard A saw windows {0, 1}; shard B saw {1, 2}. The merged series
  // must equal the union stream: disjoint windows copied, the shared
  // window combined bucket-exactly.
  WindowedSeries a(kSecond), b(kSecond);
  a.add(Micros{}, 100.0);
  a.add(kSecond, 200.0);
  b.add(kSecond, 400.0);
  b.add(2 * kSecond, 800.0);

  WindowedSeries expected(kSecond);
  expected.add(Micros{}, 100.0);
  expected.add(kSecond, 200.0);
  expected.add(kSecond, 400.0);
  expected.add(2 * kSecond, 800.0);

  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  ASSERT_EQ(a.cells().size(), 3u);
  for (std::uint64_t w = 0; w <= 2; ++w) {
    ASSERT_NE(a.cell(w), nullptr) << "window " << w;
    ASSERT_NE(expected.cell(w), nullptr);
    EXPECT_EQ(a.cell(w)->hist.count(), expected.cell(w)->hist.count());
    EXPECT_EQ(a.cell(w)->hist.quantile(0.5),
              expected.cell(w)->hist.quantile(0.5));
    EXPECT_EQ(a.cell(w)->hist.quantile(0.99),
              expected.cell(w)->hist.quantile(0.99));
  }
}

TEST(WindowedTest, MergeWidthMismatchThrows) {
  WindowedSeries a(kSecond), b(kSecond / 2);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  WindowedCounter ca(kSecond), cb(2 * kSecond);
  EXPECT_THROW(ca.merge(cb), std::invalid_argument);
}

TEST(WindowedTest, CounterMergeAndAbsentWindows) {
  WindowedCounter a(kSecond), b(kSecond);
  a.add(micros(0.0), 3);
  a.add(2 * kSecond, 1);
  b.add(2 * kSecond, 4);
  b.add(3 * kSecond, 2);
  a.merge(b);
  EXPECT_EQ(a.at(0), 3u);
  EXPECT_EQ(a.at(1), 0u);  // never incremented
  EXPECT_EQ(a.at(2), 5u);
  EXPECT_EQ(a.at(3), 2u);
  EXPECT_EQ(a.total(), 10u);
  EXPECT_EQ(a.last_index(), 3u);
}

// --- SLO tracking -------------------------------------------------------

TEST(SloTest, ExactlyOnThresholdIsGood) {
  SloSpec spec;
  spec.threshold_us = 1000.0;
  EXPECT_TRUE(spec.good(micros(999.9)));
  EXPECT_TRUE(spec.good(micros(1000.0)));  // equality meets the SLO
  EXPECT_FALSE(spec.good(micros(1000.1)));
}

TEST(SloTest, BudgetExactlySpentIsWarnNotBreach) {
  // q = 0.99 over 100-event windows: the budget is exactly 1 bad event
  // per window. Landing exactly on budget means burn_slow == 1.0 —
  // spent, not overspent — which must evaluate to kWarn, never kBreach.
  SloSpec spec;
  spec.quantile = 0.99;
  spec.threshold_us = 1000.0;
  spec.compliance_windows = 10;
  SloTracker t(spec);
  for (int w = 0; w < 20; ++w) t.close_window(/*good=*/99, /*bad=*/1);
  // (1-q) is not exactly representable; the tracker absorbs the noise.
  EXPECT_NEAR(t.burn_slow(), 1.0, 1e-9);
  EXPECT_NEAR(t.budget_events(), 10.0, 1e-9);  // (1-q) * 1000 trailing
  EXPECT_EQ(t.trailing_events(), 1000u);
  EXPECT_EQ(t.trailing_bad(), 10u);
  EXPECT_EQ(t.state(), SloState::kWarn);
  EXPECT_EQ(t.breach_windows(), 0u);
  EXPECT_EQ(t.first_breach_window(), -1);

  // q = 0.999 is the adversarial rounding direction: 1-q rounds *down*
  // (0.0009999...8), so exactly-on-budget naively computes burn_slow a
  // hair above 1.0. The tracker's epsilon must still call this warn.
  SloSpec spec3;
  spec3.quantile = 0.999;
  spec3.threshold_us = 1000.0;
  spec3.compliance_windows = 10;
  SloTracker t3(spec3);
  for (int w = 0; w < 20; ++w) t3.close_window(/*good=*/999, /*bad=*/1);
  EXPECT_NEAR(t3.burn_slow(), 1.0, 1e-9);
  EXPECT_EQ(t3.state(), SloState::kWarn);
  EXPECT_EQ(t3.breach_windows(), 0u);
}

TEST(SloTest, OneEventOverBudgetBreaches) {
  SloSpec spec;
  spec.quantile = 0.99;
  spec.compliance_windows = 10;
  SloTracker t(spec);
  for (int w = 0; w < 9; ++w) t.close_window(99, 1);
  EXPECT_NE(t.state(), SloState::kBreach);
  t.close_window(98, 2);  // trailing bad 11 > budget 10
  EXPECT_GT(t.burn_slow(), 1.0);
  EXPECT_EQ(t.state(), SloState::kBreach);
  EXPECT_EQ(t.breach_windows(), 1u);
  EXPECT_EQ(t.first_breach_window(), 9);
}

TEST(SloTest, FastBurnSpikesBreachImmediately) {
  // One catastrophic window (half the events bad against a 1% budget)
  // pages immediately even though the trailing average is still fine.
  SloSpec spec;
  spec.quantile = 0.99;
  spec.compliance_windows = 100;
  SloTracker t(spec);
  for (int w = 0; w < 50; ++w) t.close_window(100, 0);
  EXPECT_EQ(t.state(), SloState::kOk);
  t.close_window(50, 50);  // burn_fast = 0.5 / 0.01 = 50 >= 14.4
  EXPECT_GE(t.burn_fast(), spec.fast_burn);
  EXPECT_EQ(t.state(), SloState::kBreach);
  EXPECT_GE(t.max_burn_fast(), 50.0 - 1e-9);
}

TEST(SloTest, RecoveryAndTransitionCount) {
  SloSpec spec;
  spec.quantile = 0.9;  // 10% budget
  spec.compliance_windows = 4;
  SloTracker t(spec);
  t.close_window(100, 0);      // ok
  t.close_window(50, 50);      // breach (fast burn)
  t.close_window(100, 0);      // trailing 50/250 = 20% > 10% -> breach
  t.close_window(100, 0);      // trailing 50/350 ~ 14% -> breach
  t.close_window(100, 0);      // trailing 50/400 = 12.5% -> breach
  t.close_window(100, 0);      // bad window evicted (cap 4) -> ok
  EXPECT_EQ(t.state(), SloState::kOk);
  EXPECT_GE(t.transitions(), 2u);  // ok->breach, breach->ok at least
  EXPECT_EQ(t.windows(), 6u);
}

TEST(SloTest, InvalidSpecThrows) {
  SloSpec bad;
  bad.quantile = 1.0;
  EXPECT_THROW(SloTracker t(bad), std::invalid_argument);
  bad.quantile = 0.0;
  EXPECT_THROW(SloTracker t(bad), std::invalid_argument);
  bad.quantile = 0.99;
  bad.compliance_windows = 0;
  EXPECT_THROW(SloTracker t(bad), std::invalid_argument);
}

// --- Arrival process ----------------------------------------------------

QueryLogConfig small_log() {
  QueryLogConfig cfg;
  cfg.distinct_queries = 10'000;
  cfg.vocab_size = 10'000;
  cfg.seed = 17;
  return cfg;
}

TEST(ArrivalTest, DeterministicAndStrictlyIncreasing) {
  ArrivalConfig cfg;
  cfg.base_qps = 500.0;
  cfg.diurnal_amplitude = 0.2;
  cfg.diurnal_period = 10 * kSecond;
  cfg.flash_crowds = {{2 * kSecond, kSecond, 3.0}};
  cfg.outlier_probability = 0.01;
  cfg.seed = 42;

  QueryLogGenerator g1(small_log()), g2(small_log());
  ArrivalProcess a1(cfg, g1), a2(cfg, g2);
  Micros prev = micros(-1.0);
  for (int i = 0; i < 2000; ++i) {
    const auto x = a1.next();
    const auto y = a2.next();
    EXPECT_EQ(x.time, y.time);
    EXPECT_EQ(x.query.id, y.query.id);
    EXPECT_EQ(x.outlier, y.outlier);
    EXPECT_GT(x.time, prev);
    prev = x.time;
  }
  EXPECT_EQ(a1.generated(), 2000u);
}

TEST(ArrivalTest, RateCurveRespectsCrowdsAndPeakEnvelope) {
  ArrivalConfig cfg;
  cfg.base_qps = 100.0;
  cfg.diurnal_amplitude = 0.5;
  cfg.diurnal_period = 20 * kSecond;
  cfg.flash_crowds = {{5 * kSecond, 2 * kSecond, 4.0}};
  QueryLogGenerator gen(small_log());
  ArrivalProcess a(cfg, gen);
  // Inside the crowd the rate is multiplied; outside it is not.
  EXPECT_GT(a.rate_at(6 * kSecond), 2.0 * a.rate_at(15 * kSecond));
  // The thinning envelope dominates the instantaneous rate everywhere.
  for (Micros t = micros(0); t < 30 * kSecond; t += kSecond / 4) {
    EXPECT_LE(a.rate_at(t), a.peak_qps() + 1e-9) << "t=" << t.value();
  }
}

TEST(ArrivalTest, OutliersAreFreshRareTermQueries) {
  ArrivalConfig cfg;
  cfg.base_qps = 100.0;
  cfg.outlier_probability = 1.0;  // every arrival is a query of death
  cfg.outlier_terms = 8;
  QueryLogGenerator gen(small_log());
  ArrivalProcess a(cfg, gen);
  std::vector<QueryId> ids;
  for (int i = 0; i < 50; ++i) {
    const auto arr = a.next();
    EXPECT_TRUE(arr.outlier);
    EXPECT_GE(arr.query.id, QueryId{1ull << 62});  // never collides with log ids
    EXPECT_GE(arr.query.terms.size(), 1u);
    EXPECT_LE(arr.query.terms.size(), 8u);
    for (TermId t : arr.query.terms) {
      EXPECT_GE(t, TermId{small_log().vocab_size / 2});  // rare half of the vocab
    }
    ids.push_back(arr.query.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "outlier ids must never repeat (they must defeat the result cache)";
  EXPECT_EQ(a.outliers(), 50u);
}

// --- run_traffic with a stub target ------------------------------------

/// Deterministic stub: fixed service time, optionally with a synthetic
/// trace attributing part of the service time to one stage.
class StubTarget : public TrafficTarget {
 public:
  explicit StubTarget(Micros service, bool traced = false)
      : service_(service), traced_(traced) {}

  Micros serve(const Query& q) override {
    if (traced_) {
      trace_ = telemetry::QueryTrace{};
      trace_.query = q.id;
      trace_.total = service_;
      const auto hdd = static_cast<std::size_t>(
          telemetry::TraceStage::kListFetchHdd);
      trace_.stage_us[hdd] = service_ * 0.75;
      trace_.touched = 1u << hdd;
    }
    return service_;
  }

  [[nodiscard]] const telemetry::QueryTrace* last_trace() const override {
    return traced_ ? &trace_ : nullptr;
  }

 private:
  Micros service_;
  bool traced_;
  telemetry::QueryTrace trace_;
};

TrafficConfig stub_cfg(double qps, Micros service_ignored = Micros{}) {
  (void)service_ignored;
  TrafficConfig cfg;
  cfg.arrival.base_qps = qps;
  cfg.arrival.seed = 99;
  cfg.offered = 3000;
  cfg.servers = 1;
  cfg.queue_capacity = 16;
  cfg.window = kSecond;
  SloSpec slo;
  slo.name = "p99_latency";
  slo.quantile = 0.99;
  slo.threshold_us = (50 * kMillisecond).value();
  cfg.slos = {slo};
  return cfg;
}

TEST(TrafficTest, ConservationUnderOverload) {
  // Offered 2x the stub's capacity through a 16-slot queue: the harness
  // must shed, and every arrival must be accounted for exactly once.
  StubTarget target(/*service=*/10 * kMillisecond);  // capacity 100 q/s
  QueryLogGenerator gen(small_log());
  const auto r = run_traffic(target, gen, stub_cfg(/*qps=*/200.0));
  EXPECT_EQ(r.offered, 3000u);
  EXPECT_EQ(r.served + r.shed, r.offered);
  EXPECT_GT(r.shed, 0u);
  EXPECT_EQ(r.response_hist.count(), r.served);
  EXPECT_EQ(r.wait_hist.count(), r.served);
  EXPECT_EQ(r.offered_windows.total(), r.offered);
  EXPECT_EQ(r.shed_windows.total(), r.shed);
  EXPECT_EQ(r.response_windows.total(), r.served);
  // Saturated single server with a full queue: the tail is queue time.
  EXPECT_EQ(r.guilty_stage, "queue_wait");
  EXPECT_TRUE(r.breached());  // shed storm blows the 1% budget
}

TEST(TrafficTest, UnderloadServesEverythingQuietly) {
  StubTarget target(/*service=*/1 * kMillisecond);  // capacity 1000 q/s
  QueryLogGenerator gen(small_log());
  const auto r = run_traffic(target, gen, stub_cfg(/*qps=*/100.0));
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.served, r.offered);
  EXPECT_FALSE(r.breached());
  for (const auto& s : r.slo) {
    EXPECT_EQ(s.state, SloState::kOk) << s.spec.name;
    EXPECT_EQ(s.breach_windows, 0u);
  }
  // Untraced stub: service time lands in the "other" pseudo-stage.
  EXPECT_GT(r.stage_counts[kAttrOther], 0u);
}

TEST(TrafficTest, TracedTargetAttributesStages) {
  StubTarget target(/*service=*/1 * kMillisecond, /*traced=*/true);
  QueryLogGenerator gen(small_log());
  // Two servers at 5% utilization: queueing delay is essentially never
  // observed, so attribution must name the traced stage, not queue_wait.
  auto cfg = stub_cfg(/*qps=*/100.0);
  cfg.servers = 2;
  const auto r = run_traffic(target, gen, cfg);
  const auto hdd =
      static_cast<std::size_t>(telemetry::TraceStage::kListFetchHdd);
  EXPECT_EQ(r.stage_counts[hdd], r.served);
  // 75% traced to HDD fetch, 25% untraced: at low load the guilty
  // stage is the HDD fetch, not queue_wait.
  EXPECT_EQ(r.guilty_stage, "list_fetch_hdd");
  ASSERT_FALSE(r.worst.empty());
  EXPECT_LE(r.worst.size(), stub_cfg(100.0).worst_n);
  // Reservoir sorted by descending response.
  EXPECT_TRUE(std::is_sorted(r.worst.begin(), r.worst.end(),
                             [](const TailSample& a, const TailSample& b) {
                               return a.response > b.response;
                             }));
  for (const auto& w : r.worst) {
    EXPECT_NEAR(w.stage_us[hdd].value(), 0.75 * w.service.value(), 1e-6);
    EXPECT_NEAR(w.untraced.value(), 0.25 * w.service.value(), 1e-6);
    EXPECT_EQ(w.response, w.wait + w.service);
  }
}

TEST(TrafficTest, DeterministicFingerprint) {
  StubTarget t1(5 * kMillisecond), t2(5 * kMillisecond);
  QueryLogGenerator g1(small_log()), g2(small_log());
  const auto cfg = stub_cfg(150.0);
  const auto r1 = run_traffic(t1, g1, cfg);
  const auto r2 = run_traffic(t2, g2, cfg);
  EXPECT_EQ(r1.series_fingerprint(), r2.series_fingerprint());
  EXPECT_EQ(r1.served, r2.served);
  EXPECT_EQ(r1.shed, r2.shed);

  // A different arrival seed must perturb the series.
  auto cfg2 = cfg;
  cfg2.arrival.seed = 100;
  StubTarget t3(5 * kMillisecond);
  QueryLogGenerator g3(small_log());
  const auto r3 = run_traffic(t3, g3, cfg2);
  EXPECT_NE(r1.series_fingerprint(), r3.series_fingerprint());
}

TEST(TrafficTest, MoreServersDrainTheQueue) {
  const auto cfg1 = stub_cfg(300.0);
  auto cfg4 = cfg1;
  cfg4.servers = 4;
  StubTarget t1(10 * kMillisecond), t4(10 * kMillisecond);
  QueryLogGenerator g1(small_log()), g4(small_log());
  const auto r1 = run_traffic(t1, g1, cfg1);  // 3x one server's capacity
  const auto r4 = run_traffic(t4, g4, cfg4);  // 0.75x four servers'
  EXPECT_GT(r1.shed, 0u);
  EXPECT_EQ(r4.shed, 0u);
  EXPECT_LT(r4.wait_hist.quantile(0.99), r1.wait_hist.quantile(0.99));
}

// --- Coverage-aware SLOs (DESIGN.md §15) -------------------------------

/// Stub reporting a fixed coverage for every serve(): models a cluster
/// that keeps dropping the same shard.
class PartialCoverageTarget : public TrafficTarget {
 public:
  PartialCoverageTarget(Micros service, double coverage)
      : service_(service), coverage_(coverage) {}
  Micros serve(const Query&) override { return service_; }
  [[nodiscard]] double last_coverage() const override { return coverage_; }

 private:
  Micros service_;
  double coverage_;
};

TEST(TrafficTest, CoverageBelowFloorBurnsErrorBudget) {
  // Fast responses with 50% coverage: without a floor they count as
  // good; with a 0.75 floor every served query is a bad event and the
  // budget burns to breach.
  QueryLogGenerator gen(small_log());
  auto cfg = stub_cfg(/*qps=*/100.0);
  PartialCoverageTarget half(1 * kMillisecond, 0.5);
  const auto lenient = run_traffic(half, gen, cfg);
  EXPECT_FALSE(lenient.breached());
  EXPECT_EQ(lenient.partial, lenient.served);

  cfg.slos[0].coverage_floor = 0.75;
  QueryLogGenerator gen2(small_log());
  PartialCoverageTarget half2(1 * kMillisecond, 0.5);
  const auto floored = run_traffic(half2, gen2, cfg);
  EXPECT_TRUE(floored.breached());
  ASSERT_EQ(floored.slo.size(), 1u);
  // Every evaluated event is bad (the trailing partial window is
  // excluded from the totals, so bad <= served).
  EXPECT_EQ(floored.slo[0].good, 0u);
  EXPECT_GT(floored.slo[0].bad, 0u);
  EXPECT_LE(floored.slo[0].bad, floored.served);
}

TEST(TrafficTest, CoverageExactlyOnFloorIsGood) {
  // Boundary convention matches exactly-on-threshold latency:
  // coverage landing exactly on the floor meets the SLO; a hair below
  // does not.
  SloSpec spec;
  spec.name = "p99_with_coverage";
  spec.quantile = 0.99;
  spec.threshold_us = (50 * kMillisecond).value();
  spec.coverage_floor = 0.75;
  EXPECT_TRUE(spec.good_event(1 * kMillisecond, 0.75));
  EXPECT_FALSE(spec.good_event(1 * kMillisecond,
                               0.75 - 1e-9));
  // The floor never rescues a slow response.
  EXPECT_FALSE(spec.good_event(60 * kMillisecond, 1.0));
  // Floor 0: coverage is ignored entirely.
  spec.coverage_floor = 0.0;
  EXPECT_TRUE(spec.good_event(1 * kMillisecond, 0.0));

  // End-to-end: a target that always reports exactly-on-floor coverage
  // never burns budget.
  QueryLogGenerator gen(small_log());
  auto cfg = stub_cfg(/*qps=*/100.0);
  cfg.slos[0].coverage_floor = 0.75;
  PartialCoverageTarget on_floor(1 * kMillisecond, 0.75);
  const auto r = run_traffic(on_floor, gen, cfg);
  EXPECT_FALSE(r.breached());
  ASSERT_EQ(r.slo.size(), 1u);
  EXPECT_EQ(r.slo[0].bad, 0u);
  EXPECT_EQ(r.partial, r.served);  // partial is coverage < 1, floor-agnostic
}

TEST(TrafficTest, AttrStageNamesCoverTheAxis) {
  EXPECT_STREQ(attr_stage_name(kAttrQueueWait), "queue_wait");
  EXPECT_STREQ(attr_stage_name(kAttrOther), "other");
  EXPECT_STREQ(attr_stage_name(static_cast<std::size_t>(
                   telemetry::TraceStage::kListFetchHdd)),
               "list_fetch_hdd");
  for (std::size_t s = 0; s < kNumAttrStages; ++s) {
    EXPECT_NE(attr_stage_name(s), nullptr);
    EXPECT_GT(std::string(attr_stage_name(s)).size(), 0u);
  }
}

}  // namespace
}  // namespace ssdse
