// Fig. 17 — LRU vs CBLRU vs CBSLRU on the full two-level hierarchy:
// average response time and throughput vs collection size.
// Paper: CBLRU -35.27 % / CBSLRU -41.05 % response time,
//        CBLRU +55.29 % / CBSLRU +70.47 % throughput, vs LRU.
#include "bench/bench_common.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

struct Cell {
  Micros response;
  double qps;
};

Cell run(CachePolicy policy, std::uint64_t docs, std::uint64_t queries,
         bool emit_report = false) {
  SystemConfig cfg = paper_system(policy, docs);
  SearchSystem system(cfg);
  system.run(queries);
  system.drain();
  if (emit_report) {
    maybe_write_report(system.telemetry_registry().snapshot(),
                       "fig17_2lc_cbslru_5m");
  }
  return {system.metrics().mean_response(), system.throughput_qps()};
}

}  // namespace

int main() {
  print_environment("Fig. 17 — LRU vs CBLRU vs CBSLRU (2LC)");
  const auto queries = default_queries(30'000);

  Table rt({"docs (10^6)", "LRU (ms)", "CBLRU (ms)", "CBSLRU (ms)"});
  Table tp({"docs (10^6)", "LRU (q/s)", "CBLRU (q/s)", "CBSLRU (q/s)"});
  double resp[3] = {0, 0, 0}, thpt[3] = {0, 0, 0};
  int cells = 0;
  for (std::uint64_t docs = 1; docs <= 5; ++docs) {
    const Cell lru = run(CachePolicy::kLru, docs * 1'000'000, queries);
    const Cell cb = run(CachePolicy::kCblru, docs * 1'000'000, queries);
    // Report the largest CBSLRU cell (the paper's 5M-doc column).
    const Cell cbs =
        run(CachePolicy::kCbslru, docs * 1'000'000, queries, docs == 5);
    rt.add_row({Table::integer(static_cast<long long>(docs)),
                fmt_ms(lru.response), fmt_ms(cb.response),
                fmt_ms(cbs.response)});
    tp.add_row({Table::integer(static_cast<long long>(docs)),
                Table::num(lru.qps, 1), Table::num(cb.qps, 1),
                Table::num(cbs.qps, 1)});
    resp[0] += lru.response.value();
    resp[1] += cb.response.value();
    resp[2] += cbs.response.value();
    thpt[0] += lru.qps;
    thpt[1] += cb.qps;
    thpt[2] += cbs.qps;
    ++cells;
    std::printf("  ... %llu M docs done\n",
                static_cast<unsigned long long>(docs));
  }
  std::printf("\n--- (a) average response time ---\n");
  rt.print();
  std::printf("\n--- (b) throughput ---\n");
  tp.print();
  std::printf(
      "\nvs LRU averages: CBLRU response %+.2f%% (paper -35.27%%), "
      "throughput %+.2f%% (paper +55.29%%)\n"
      "                 CBSLRU response %+.2f%% (paper -41.05%%), "
      "throughput %+.2f%% (paper +70.47%%)\n",
      (resp[1] / resp[0] - 1) * 100, (thpt[1] / thpt[0] - 1) * 100,
      (resp[2] / resp[0] - 1) * 100, (thpt[2] / thpt[0] - 1) * 100);
  return 0;
}
