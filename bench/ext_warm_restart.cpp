// Extension bench: warm restart from persisted SSD cache metadata
// (src/recovery). A production restart normally pays the cold-start
// cliff — the SSD still holds every cached block, but the DRAM maps
// that name them died with the process. With the persistence subsystem
// the restarted server recovers those maps from the last snapshot plus
// the journal tail and keeps the flash-resident working set.
//
// Phases per policy:
//   A  warm-up to steady state, measure the final window, checkpoint;
//   B  restart against the same metadata dir (warm), measure the first
//      window after recovery;
//   C  cold baseline: identical config, fresh caches, same window.
// Acceptance bar: the warm early window sits within 5 % of the
// pre-restart steady-state hit ratio.
#include <filesystem>
#include <string>

#include "bench/bench_common.hpp"
#include "src/util/crash_point.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

struct Window {
  double hit_ratio = 0;
  Micros mean_response = micros(0);
};

Window run_window(SearchSystem& system, std::uint64_t queries) {
  const CacheManagerStats& st = system.cache_manager().stats();
  const auto hits0 = st.result_hits_mem + st.result_hits_ssd +
                     st.list_hits_mem + st.list_hits_ssd;
  const auto lookups0 = st.result_lookups + st.list_lookups;
  Micros sum = micros(0);
  for (std::uint64_t i = 0; i < queries; ++i) {
    sum += system.execute(system.generator().next()).response;
  }
  const auto hits = st.result_hits_mem + st.result_hits_ssd +
                    st.list_hits_mem + st.list_hits_ssd - hits0;
  const auto lookups = st.result_lookups + st.list_lookups - lookups0;
  Window w;
  w.hit_ratio = lookups ? static_cast<double>(hits) /
                              static_cast<double>(lookups)
                        : 0.0;
  w.mean_response = queries ? sum / static_cast<double>(queries) : Micros{};
  return w;
}

WarmRestartReport measure(CachePolicy policy, std::uint64_t warmup,
                          std::uint64_t window) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (std::string("ssdse_warm_restart_") + to_string(policy));
  std::filesystem::remove_all(dir);

  SystemConfig cfg = paper_system(policy, 2'000'000, 6 * MiB);
  cfg.recovery.enabled = true;
  cfg.recovery.dir = dir.string();

  WarmRestartReport report;
  report.window_queries = window;

  {  // Phase A: reach steady state, then persist the metadata.
    SearchSystem a(cfg);
    a.run(warmup > window ? warmup - window : 0);
    report.steady_hit_ratio = run_window(a, window).hit_ratio;
    a.checkpoint();
  }

  {  // Phase B: restart against the persisted metadata (warm).
    SearchSystem b(cfg);
    if (!b.warm_started()) {
      std::fprintf(stderr, "warm restart failed for %s\n", to_string(policy));
      std::exit(1);
    }
    const Window w = run_window(b, window);
    report.warm_hit_ratio = w.hit_ratio;
    report.warm_mean_response = w.mean_response;
    report.recovery_flash_time = b.recovery_stats()->restore_flash_time;
    report.recovery_wall_ms = b.recovery_stats()->recovery_wall_ms;
    // Telemetry run report (SSDSE_TELEMETRY_OUT) for one recovered
    // system, the CBSLRU restart's, named by its policy.
    if (policy == CachePolicy::kCbslru) {
      maybe_write_report(b.telemetry_registry().snapshot(),
                         std::string("ext_warm_restart/") + to_string(policy));
    }
  }

  {  // Phase C: cold baseline — same config, fresh caches.
    SystemConfig cold_cfg = cfg;
    cold_cfg.recovery.enabled = false;
    SearchSystem c(cold_cfg);
    const Window w = run_window(c, window);
    report.cold_hit_ratio = w.hit_ratio;
    report.cold_mean_response = w.mean_response;
  }

  std::filesystem::remove_all(dir);
  return report;
}

}  // namespace

int main() {
  print_environment("Extension — warm restart from persisted SSD cache");
  const auto warmup = default_queries(30'000);
  const std::uint64_t window = std::max<std::uint64_t>(warmup / 6, 1'000);
  std::printf("warm-up %llu queries, measured window %llu queries\n\n",
              static_cast<unsigned long long>(warmup),
              static_cast<unsigned long long>(window));

  Table t({"policy", "steady HR", "warm HR", "cold HR", "warm mean (ms)",
           "cold mean (ms)", "HR gap vs steady", "recovery (ms)"});
  bool within_bar = true;
  for (CachePolicy p : {CachePolicy::kCblru, CachePolicy::kCbslru}) {
    std::printf("measuring %s restart...\n", to_string(p));
    const WarmRestartReport r = measure(p, warmup, window);
    within_bar = within_bar && r.warm_vs_steady_gap() <= 0.05;
    t.add_row({to_string(p), Table::percent(r.steady_hit_ratio),
               Table::percent(r.warm_hit_ratio),
               Table::percent(r.cold_hit_ratio),
               fmt_ms(r.warm_mean_response), fmt_ms(r.cold_mean_response),
               Table::percent(r.warm_vs_steady_gap()),
               Table::num(r.recovery_wall_ms, 2)});
  }
  std::printf("\n");
  t.print();
  std::printf(
      "\nexpected: the warm window's hit ratio lands within 5%% of the\n"
      "pre-restart steady state (acceptance bar: %s), while the cold\n"
      "restart pays the full ramp — lower hit ratio, higher mean\n"
      "response — until the SSD working set is rebuilt from scratch.\n",
      within_bar ? "met" : "MISSED");
  return within_bar ? 0 : 1;
}
