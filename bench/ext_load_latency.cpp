// Extension bench: latency under load (the paper's own load/latency
// extension), ported onto the open-loop arrival harness (DESIGN.md
// §14). Each policy serves a seeded Poisson arrival stream through a
// bounded FIFO admission queue; the swept offered load shows where
// each policy's latency hockey-stick bends (LRU saturates earliest:
// its service times are longest and its flash writes steal the most
// device time). Queueing delay is measured, not modelled: response =
// wait + service per query, with shedding once the queue cap is hit.
//
// Emits the CBSLRU knee-point run report — including the
// traffic/windows/slo/attribution sections — when SSDSE_TELEMETRY_OUT
// is set (like ext_warm_restart/ext_faults).
#include <memory>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/hybrid/traffic.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

struct PolicyRun {
  CachePolicy policy;
  std::unique_ptr<SearchSystem> system;
  std::unique_ptr<SystemTrafficTarget> target;
  Micros mean_service = micros(0);
};

/// Closed-loop warmup + calibration: steady-state mean service time
/// (background flash included) for one policy.
Micros calibrate(PolicyRun& run, std::uint64_t queries) {
  StreamingStats stats;
  for (std::uint64_t i = 0; i < queries; ++i) {
    stats.add(run.target->serve(run.system->generator().next()));
  }
  return micros(stats.mean());
}

}  // namespace

int main() {
  print_environment("Extension — latency vs offered load (open loop)");
  const std::uint64_t queries = default_queries(20'000);
  const std::uint64_t per_point = std::max<std::uint64_t>(queries / 4, 1'000);

  const CachePolicy policies[] = {CachePolicy::kLru, CachePolicy::kCblru,
                                  CachePolicy::kCbslru};
  std::vector<PolicyRun> runs;
  for (CachePolicy p : policies) {
    std::printf("calibrating %s service times...\n", to_string(p));
    PolicyRun run;
    run.policy = p;
    run.system = std::make_unique<SearchSystem>(
        paper_system(p, 2'000'000, 6 * MiB));
    run.target = std::make_unique<SystemTrafficTarget>(*run.system);
    run.mean_service = calibrate(run, per_point);
    runs.push_back(std::move(run));
  }

  // Common load axis: fractions of the *fastest* policy's single-server
  // saturation rate, so the slower policies visibly knee first.
  double best_mean = runs.front().mean_service.value();
  for (const PolicyRun& r : runs) {
    best_mean = std::min(best_mean, r.mean_service.value());
  }
  const double saturation_qps = kSecond.value() / std::max(best_mean, 1.0);

  telemetry::SloSpec slo;
  slo.name = "p99_latency";
  slo.quantile = 0.99;
  slo.compliance_windows = 10;

  Table t({"offered load (q/s)", "LRU p99 (ms)", "CBLRU p99 (ms)",
           "CBSLRU p99 (ms)", "LRU shed", "CBSLRU shed"});
  const double fractions[] = {0.25, 0.5, 0.7, 0.85, 1.0, 1.2};
  for (const double frac : fractions) {
    const double qps = frac * saturation_qps;
    std::vector<TrafficResult> points;
    for (PolicyRun& run : runs) {
      TrafficConfig cfg;
      cfg.arrival.base_qps = qps;
      cfg.arrival.seed = 1234;  // same arrival process for every policy
      cfg.offered = per_point;
      cfg.servers = 1;
      cfg.queue_capacity = 512;
      cfg.window = kSecond;
      slo.threshold_us = 12.0 * run.mean_service.value();
      cfg.slos = {slo};
      points.push_back(
          run_traffic(*run.target, run.system->generator(), cfg));
      // The CBSLRU knee point carries the representative run report.
      if (run.policy == CachePolicy::kCbslru && frac == 1.0) {
        maybe_write_report(run.system->telemetry_registry().snapshot(),
                           "ext_load_latency", &points.back());
      }
    }
    const auto shed_pct = [](const TrafficResult& r) {
      return r.offered == 0 ? 0.0
                            : static_cast<double>(r.shed) /
                                  static_cast<double>(r.offered);
    };
    t.add_row({Table::num(qps, 0),
               fmt_ms(micros(points[0].response_hist.quantile(0.99))),
               fmt_ms(micros(points[1].response_hist.quantile(0.99))),
               fmt_ms(micros(points[2].response_hist.quantile(0.99))),
               Table::percent(shed_pct(points[0])),
               Table::percent(shed_pct(points[2]))});
  }
  t.print();
  std::printf(
      "\nexpected: every policy is flat at low load; LRU's queue blows up\n"
      "first (longest service + most background flash work), CBSLRU\n"
      "sustains the highest offered load before its knee and sheds the\n"
      "least at saturation.\n");
  return 0;
}
