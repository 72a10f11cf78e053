// Ablation: posting-list compression codec. Compression shrinks on-disk
// list sizes, which shrinks SC (Formula 1), raises EV (Formula 2) and
// lets every cache level hold more lists — compounding with the paper's
// policies. A second section ablates block-max pruning on a
// materialized index (DESIGN.md §13): exhaustive vs pruned DAAT,
// per-codec, with the bit-identical-results verdict in the table.
#include <algorithm>

#include "bench/bench_common.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

/// Exhaustive-vs-pruned cells on the DAAT workload's corpus built with
/// `codec`. Returns rows for both pruning settings.
void pruning_cells(const std::string& codec, std::uint64_t queries,
                   Table& t) {
  const DaatWorkload w(queries, codec);
  const DaatIndex& daat = *w.daat;

  DaatProcessor oracle(kTopK);
  std::vector<ResultEntry> reference;
  reference.reserve(w.batch.size());
  auto t0 = Clock::now();
  for (const Query& q : w.batch) {
    reference.push_back(oracle.intersect(daat, q));
  }
  const double oracle_ms = ms_since(t0);

  MaxScoreDaatProcessor pruned(kTopK);
  bool identical = true;
  t0 = Clock::now();
  for (std::size_t i = 0; i < w.batch.size(); ++i) {
    const ResultEntry r = pruned.intersect(daat, w.batch[i]);
    identical &= r.docs == reference[i].docs;
  }
  const double pruned_ms = ms_since(t0);

  const double encoded_mib =
      static_cast<double>(daat.block_store().encoded_bytes()) / MiB;
  t.add_row({codec, "off",
             Table::num(encoded_mib, 1),
             Table::num(1000.0 * static_cast<double>(queries) / oracle_ms, 0),
             Table::integer(0), "n/a"});
  t.add_row({codec, "on",
             Table::num(encoded_mib, 1),
             Table::num(1000.0 * static_cast<double>(queries) / pruned_ms, 0),
             Table::integer(
                 static_cast<long long>(pruned.pruning().prune_jumps)),
             identical ? "identical" : "DIVERGED"});
}

}  // namespace

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

  // Block-max pruning on/off, per block codec, on the perf_driver daat
  // corpus. The "top-K" column is the safety verdict: pruning must be
  // a pure speedup, never a result change.
  std::printf("\n");
  const auto daat_queries =
      std::min<std::uint64_t>(queries, default_queries(10'000));
  Table p({"codec", "pruning", "encoded (MiB)", "q/s", "prune jumps",
           "top-K"});
  pruning_cells("block-packed", daat_queries, p);
  pruning_cells("stream-vbyte", daat_queries, p);
  p.print();
  return 0;
}
