// Ablation: posting-list compression codec. Compression shrinks on-disk
// list sizes, which shrinks SC (Formula 1), raises EV (Formula 2) and
// lets every cache level hold more lists — compounding with the paper's
// policies.
#include "bench/bench_common.hpp"

using namespace ssdse;
using namespace ssdse::bench;

int main() {
  print_environment("Ablation — posting-list compression codec");
  const auto queries = default_queries(25'000);

  Table t({"codec", "index bytes (MiB)", "hit ratio", "resp (ms)",
           "HDD list reads", "block erases"});
  for (const std::string& codec :
       {std::string("raw"), std::string("group-varint"),
        std::string("varint"), std::string("block-packed"),
        std::string("stream-vbyte")}) {
    SystemConfig cfg = paper_system(CachePolicy::kCblru, 2'000'000, 6 * MiB);
    cfg.corpus.codec = codec;
    SearchSystem system(cfg);
    system.run(queries);
    system.drain();
    const auto& cs = system.cache_manager().stats();
    t.add_row({codec,
               Table::num(static_cast<double>(
                              system.index().layout().total_bytes()) /
                              MiB, 0),
               Table::percent(cs.hit_ratio()),
               fmt_ms(system.metrics().mean_response()),
               Table::integer(static_cast<long long>(cs.hdd_list_reads)),
               Table::integer(static_cast<long long>(
                   system.cache_ssd()->block_erases()))});
    std::printf("  ... %s done\n", codec.c_str());
  }
  t.print();
  std::printf(
      "\nexpected: compressed postings (varint ~%0.0f%% of raw) raise hit\n"
      "ratios and cut index-store traffic at identical cache budgets.\n",
      100.0 * 5.0 / 8.0);
  return 0;
}
