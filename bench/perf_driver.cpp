// Wall-clock performance driver: measures the speed of the *simulator
// itself* (not simulated time) on a fixed workload, and emits the
// result as BENCH_perf_driver.json; that file's git history is the
// repo's perf trajectory.
//
// Three phases isolate the layers of the query hot path:
//  * daat  — materialized-index conjunctive top-K (DaatProcessor) on a
//            small real corpus: pure engine + index-layout cost;
//  * cache — one-level (memory-only) SearchSystem at the paper's 5M-doc
//            scale: QM/RM cache machinery without flash;
//  * ssd   — full two-level CBSLRU hierarchy (write buffer, SSD caches,
//            FTL + NAND model): the fig14-scale workload.
//
// Each phase also records a result checksum / coverage figure so a
// before/after comparison can assert the optimization changed *time
// only*, never output. At the full query counts every phase must
// reproduce its pinned fingerprint, or the driver exits non-zero; this
// is the one place the pins are enforced.
//
// Gates: `pins` (every enforced phase reproduces its pin) and
// `trace_guard` (below). Override query counts with SSDSE_QUERIES
// (system phases) and SSDSE_DAAT_QUERIES; output path with
// SSDSE_BENCH_OUT.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/hybrid/run_report.hpp"
#include "src/telemetry/tracer.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

// The pinned fingerprints, enforced at the full query counts.
constexpr std::uint64_t kFullDaatQueries = 20'000;
constexpr std::uint64_t kFullSystemQueries = 40'000;
constexpr std::uint64_t kDaatPin = 9983495460346675520ull;
constexpr std::uint64_t kCachePinPpm = 322028;
constexpr std::uint64_t kSsdPinPpm = 508879;

struct PhaseResult {
  const char* name;
  std::uint64_t queries = 0;
  double wall_ms = 0;
  double qps = 0;
  /// Output fingerprint: DAAT result checksum or request coverage in
  /// parts-per-million. Must be invariant under perf-only changes.
  std::uint64_t fingerprint = 0;
  /// The fingerprint this phase must reproduce at its full query count.
  std::uint64_t pin = 0;
  bool pin_enforced = false;  // ran at the full query count

  [[nodiscard]] bool pin_match() const { return fingerprint == pin; }
};

/// The daat hot loop. `kTraced=false` compiles the span calls away
/// entirely (if constexpr), giving the guard a true tracing-compiled-out
/// baseline inside one binary; `kTraced=true` instruments each query
/// against `tracer`. Both variants must produce the same checksum.
template <bool kTraced>
std::uint64_t daat_loop(const DaatWorkload& w,
                        telemetry::QueryTracer* tracer) {
  DaatProcessor daat(/*top_k=*/kTopK);
  std::uint64_t checksum = 0;
  for (const Query& q : w.batch) {
    if constexpr (kTraced) tracer->begin_query(q.id);
    DaatStats stats;
    const ResultEntry r = daat.intersect(*w.index, q, &stats);
    checksum = fold_checksum(checksum, stats, r);
    if constexpr (kTraced) {
      tracer->add_span(telemetry::TraceStage::kScore,
                       static_cast<Micros>(stats.postings_touched));
      tracer->end_query(static_cast<Micros>(stats.postings_touched));
    }
  }
  return checksum;
}

/// Phase 1: the DAAT engine on a materialized index. Build cost (the
/// one-time doc-sorted materialization) is excluded: the simulator
/// builds once and serves millions of queries.
PhaseResult run_daat_phase(std::uint64_t queries) {
  DaatWorkload w(queries);
  const auto t0 = Clock::now();
  const std::uint64_t checksum = daat_loop<false>(w, nullptr);
  const double wall = ms_since(t0);
  return PhaseResult{"daat", queries, wall,
                     1000.0 * static_cast<double>(queries) / wall, checksum,
                     kDaatPin, queries == kFullDaatQueries};
}

/// Zero-overhead guard: the telemetry layer must never tax the hot path
/// when it is off. Runs the daat loop with spans compiled out and with
/// spans compiled in against an idle (runtime-disabled) tracer, in
/// alternating min-of-N pairs; the checksums must match bit-for-bit and
/// the instrumented wall time must stay within 10 %.
struct TraceGuardResult {
  std::uint64_t fingerprint_off = 0;
  std::uint64_t fingerprint_on = 0;
  double wall_ratio = 0;  // instrumented-idle / compiled-out (min-of-N)
  bool enforced = false;  // qps bound enforced (Release builds)
  bool pass = false;
};

TraceGuardResult run_trace_guard(std::uint64_t queries) {
  DaatWorkload w(queries);
  telemetry::QueryTracer tracer;
  tracer.set_enabled(false);  // compiled in, runtime-idle

  TraceGuardResult g;
  double best_off = 0, best_on = 0;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    g.fingerprint_off = daat_loop<false>(w, nullptr);
    const double off = ms_since(t0);
    t0 = Clock::now();
    g.fingerprint_on = daat_loop<true>(w, &tracer);
    const double on = ms_since(t0);
    if (rep == 0 || off < best_off) best_off = off;
    if (rep == 0 || on < best_on) best_on = on;
  }
  g.wall_ratio = best_off > 0 ? best_on / best_off : 1.0;
#ifdef NDEBUG
  g.enforced = true;
#endif
  g.pass = g.fingerprint_off == g.fingerprint_on &&
           (!g.enforced || g.wall_ratio <= 1.10);
  return g;
}

/// Shared body of the two system phases: run the fixed query stream,
/// time it, fingerprint the request coverage. When `report_path` is
/// set, the phase additionally emits the telemetry run report.
PhaseResult run_system_phase(const char* name, SystemConfig cfg,
                             std::uint64_t queries, std::uint64_t pin_ppm,
                             const char* report_path = nullptr) {
  SearchSystem system(cfg);
  const auto t0 = Clock::now();
  system.run(queries);
  system.drain();
  const double wall = ms_since(t0);
  if (report_path != nullptr &&
      !write_run_report(system, name, report_path)) {
    std::fprintf(stderr, "perf_driver: cannot write %s\n", report_path);
    std::exit(1);
  }
  const auto coverage_ppm = static_cast<std::uint64_t>(
      1e6 * system.metrics().request_coverage());
  return PhaseResult{name, queries, wall,
                     1000.0 * static_cast<double>(queries) / wall,
                     coverage_ppm, pin_ppm, queries == kFullSystemQueries};
}

/// Phase 2: memory-only cache hierarchy at web scale (no flash model).
PhaseResult run_cache_phase(std::uint64_t queries) {
  SystemConfig cfg = paper_system(CachePolicy::kCblru);
  cfg.cache.l2 = false;
  cfg.set_memory_budget(64 * MiB);
  cfg.cache.l2 = false;  // set_memory_budget sizes SSD fields; keep off
  cfg.training_queries = 0;
  return run_system_phase("cache", cfg, queries, kCachePinPpm);
}

/// Phase 3: the full two-level hierarchy — the fig14_hit_ratio-scale
/// cell (5M docs, CBSLRU, 10 MiB memory budget, SSD 10x/100x). This is
/// the phase whose telemetry report the CI schema check validates.
PhaseResult run_ssd_phase(std::uint64_t queries, const char* report_path) {
  SystemConfig cfg = paper_system(CachePolicy::kCbslru);
  return run_system_phase("ssd", cfg, queries, kSsdPinPpm, report_path);
}

}  // namespace

int main() {
  print_environment("perf driver — simulator wall-clock throughput");
  const auto system_queries = default_queries(kFullSystemQueries);
  const auto daat_queries = env_count("SSDSE_DAAT_QUERIES", kFullDaatQueries);
  const char* telemetry_out = std::getenv("SSDSE_TELEMETRY_OUT");
  if (!telemetry_out) telemetry_out = "TELEMETRY.json";

  std::vector<PhaseResult> phases;
  bool pins_ok = true;
  const auto record = [&](const PhaseResult& p) {
    std::printf("  %-5s: %8.1f q/s  (%.0f ms, fingerprint %llu, pin %s)\n",
                p.name, p.qps, p.wall_ms,
                static_cast<unsigned long long>(p.fingerprint),
                !p.pin_enforced ? "not enforced at this query count"
                : p.pin_match() ? "matches"
                                : "MISMATCH");
    pins_ok = pins_ok && (!p.pin_enforced || p.pin_match());
    phases.push_back(p);
  };
  record(run_daat_phase(daat_queries));
  record(run_cache_phase(system_queries));
  record(run_ssd_phase(system_queries, telemetry_out));
  std::printf("wrote %s\n", telemetry_out);

  const TraceGuardResult guard = run_trace_guard(daat_queries);
  std::printf("  trace guard: wall ratio %.3f (idle-instrumented / "
              "compiled-out), fingerprints %llu vs %llu%s\n",
              guard.wall_ratio,
              static_cast<unsigned long long>(guard.fingerprint_off),
              static_cast<unsigned long long>(guard.fingerprint_on),
              guard.enforced ? "" : " [ratio not enforced: debug build]");

  return finish_bench(
      "perf_driver", {{"pins", pins_ok}, {"trace_guard", guard.pass}},
      [&](telemetry::JsonWriter& w) {
        std::uint64_t total_q = 0;
        double total_ms = 0;
        w.key("phases");
        w.begin_array();
        for (const PhaseResult& p : phases) {
          w.begin_object();
          w.key("name");
          w.value(p.name);
          w.key("queries");
          w.value(p.queries);
          w.key("wall_ms");
          w.value(p.wall_ms);
          w.key("qps");
          w.value(p.qps);
          w.key("fingerprint");
          w.value(p.fingerprint);
          w.key("pin");
          w.value(p.pin);
          w.key("pin_enforced");
          w.value(p.pin_enforced);
          w.end_object();
          total_q += p.queries;
          total_ms += p.wall_ms;
        }
        w.end_array();
        w.key("trace_guard");
        w.begin_object();
        w.key("fingerprint_off");
        w.value(guard.fingerprint_off);
        w.key("fingerprint_on");
        w.value(guard.fingerprint_on);
        w.key("wall_ratio");
        w.value(guard.wall_ratio);
        w.key("enforced");
        w.value(guard.enforced);
        w.end_object();
        w.key("total");
        w.begin_object();
        w.key("queries");
        w.value(total_q);
        w.key("wall_ms");
        w.value(total_ms);
        w.key("qps");
        w.value(1000.0 * static_cast<double>(total_q) / total_ms);
        w.end_object();
      });
}
