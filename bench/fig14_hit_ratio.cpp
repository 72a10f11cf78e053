// Fig. 14 — hit ratio comparison. Hit ratio is data-request coverage:
// every query implies one result request plus one per term; a result
// hit covers them all, a cache-served list covers itself. This uniform
// metric makes RC-only / IC-only / RIC columns comparable.
//  (a) RC vs IC vs RIC over cache capacity (result-only, list-only, and
//      combined 20/80 memory caches);
//  (b) LRU vs CBLRU vs CBSLRU on the full two-level hierarchy under
//      capacity pressure (paper: CBLRU +9.05 pp, CBSLRU +13.31 pp
//      average over LRU).
#include "bench/bench_common.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

double run_1lc(bool results, bool lists, Bytes budget,
               std::uint64_t queries) {
  SystemConfig cfg = paper_system(CachePolicy::kCblru);
  cfg.cache.l2 = false;
  cfg.cache.result_cache = results;
  cfg.cache.list_cache = lists;
  if (results && lists) {
    cfg.set_memory_budget(budget);  // 20/80 split
    cfg.cache.l2 = false;
  } else if (results) {
    cfg.cache.mem_result_capacity = budget;
  } else {
    cfg.cache.mem_list_capacity = budget;
  }
  cfg.training_queries = 0;
  SearchSystem system(cfg);
  system.run(queries);
  return system.metrics().request_coverage();
}

double run_2lc(CachePolicy policy, Bytes budget, std::uint64_t queries,
               bool emit_report = false) {
  SystemConfig cfg = paper_system(policy, 5'000'000, budget);
  SearchSystem system(cfg);
  system.run(queries);
  system.drain();
  if (emit_report) {
    maybe_write_report(system.telemetry_registry().snapshot(),
                       "fig14_2lc_cbslru");
  }
  return system.metrics().request_coverage();
}

}  // namespace

int main() {
  print_environment("Fig. 14 — hit ratio comparison");
  const auto queries = default_queries(40'000);

  std::printf("--- (a) RC vs IC vs RIC, one-level cache, 5M docs ---\n");
  Table a({"cache size (MiB)", "RC", "IC", "RIC"});
  for (Bytes mb = 20; mb <= 200; mb += 20) {
    const Bytes budget = mb * MiB;
    a.add_row({Table::integer(static_cast<long long>(mb)),
               Table::percent(run_1lc(true, false, budget, queries)),
               Table::percent(run_1lc(false, true, budget, queries)),
               Table::percent(run_1lc(true, true, budget, queries))});
    std::printf("  ... %llu MiB done\n",
                static_cast<unsigned long long>(mb));
  }
  a.print();

  std::printf(
      "\n--- (b) LRU vs CBLRU vs CBSLRU, two-level cache (SSD = 10x/100x "
      "memory) ---\n");
  Table b({"mem budget (MiB)", "LRU", "CBLRU", "CBSLRU"});
  double sum_lru = 0, sum_cb = 0, sum_cbs = 0;
  int cells = 0;
  for (Bytes mb : {2, 4, 6, 8, 10, 12, 16, 20}) {
    const double lru = run_2lc(CachePolicy::kLru, mb * MiB, queries);
    const double cb = run_2lc(CachePolicy::kCblru, mb * MiB, queries);
    // Report the paper's headline cell (10 MiB memory budget).
    const double cbs =
        run_2lc(CachePolicy::kCbslru, mb * MiB, queries, mb == 10);
    sum_lru += lru;
    sum_cb += cb;
    sum_cbs += cbs;
    ++cells;
    b.add_row({Table::integer(static_cast<long long>(mb)),
               Table::percent(lru), Table::percent(cb),
               Table::percent(cbs)});
    std::printf("  ... %llu MiB done\n",
                static_cast<unsigned long long>(mb));
  }
  b.print();
  std::printf(
      "\naverage hit ratio: LRU %.2f%%, CBLRU %.2f%% (%+.2f pp), "
      "CBSLRU %.2f%% (%+.2f pp)\n",
      100 * sum_lru / cells, 100 * sum_cb / cells,
      100 * (sum_cb - sum_lru) / cells, 100 * sum_cbs / cells,
      100 * (sum_cbs - sum_lru) / cells);
  std::printf("paper: CBLRU +9.05 pp, CBSLRU +13.31 pp over LRU.\n");
  return 0;
}
