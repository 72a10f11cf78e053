// Extension bench: read/write mixes over the live index (src/ingest,
// DESIGN.md §12) — territory the paper never measured, since its
// engine serves a frozen index.
//
// Cells, all over the same materialized corpus and query stream:
//   disabled      ingest subsystem compiled out of the config — the
//                 frozen-index baseline;
//   enabled_idle  subsystem on, zero mutations. Gate 1: the output
//                 fingerprint must equal `disabled` bit-for-bit (the
//                 zero-churn invariant: liveness costs nothing until
//                 used);
//   churn_64      one ingest per 64 queries, every 4th ingest paired
//                 with a random delete;
//   churn_8       heavy churn, one ingest per 8 queries — several
//                 segment merges mid-run.
// After the heavy cell: probe a fixed query set against a cache-less
// oracle system over the rebuilt document set, both mid-segment and
// after a forced merge. Gate 2: results bit-identical at both points
// (cache coherence + overlay scoring are exact, not approximate).
//
// SSDSE_QUERIES scales the run; the bench artifact goes to
// SSDSE_BENCH_OUT (default BENCH_ext_ingest.json, validated by
// scripts/check_bench_json.py); the heavy cell writes a telemetry run
// report when SSDSE_TELEMETRY_OUT is set.
#include <bit>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/ingest/live_index.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

CorpusConfig bench_corpus() {
  CorpusConfig cc;
  cc.num_docs = 20'000;
  cc.vocab_size = 3'000;
  cc.terms_per_doc = 30;
  cc.seed = 2012;
  return cc;
}

SystemConfig bench_system(const CorpusConfig& cc, bool live) {
  SystemConfig cfg;
  cfg.corpus = cc;
  cfg.log.vocab_size = cc.vocab_size;
  cfg.log.distinct_queries = 20'000;
  cfg.set_memory_budget(4 * MiB);
  cfg.cache.ssd_result_capacity = 8 * MiB;
  cfg.cache.ssd_list_capacity = 32 * MiB;
  cfg.training_queries = 2'000;
  cfg.ingest.enabled = live;
  // Low merge trigger so churn cells exercise several segment merges
  // mid-run (the default 64k-posting threshold would never fire here).
  cfg.ingest.merge_segment_postings = 2'048;
  return cfg;
}

ingest::DocBag make_bag(Rng& rng, std::uint32_t vocab) {
  ingest::DocBag bag;
  while (bag.size() < 12) {
    const auto t = static_cast<TermId>(rng.next_below(vocab));
    bool dup = false;
    for (const auto& [bt, tf] : bag) dup |= bt == t;
    if (!dup) {
      bag.emplace_back(t,
                       1 + static_cast<std::uint32_t>(rng.next_below(5)));
    }
  }
  std::sort(bag.begin(), bag.end());
  return bag;
}

std::uint64_t fold_result(std::uint64_t checksum, const ResultEntry& r) {
  for (const ScoredDoc& d : r.docs) {
    checksum = checksum * 1099511628211ull + d.doc.raw() +
               std::bit_cast<std::uint32_t>(d.score);
  }
  return checksum;
}

struct CellResult {
  std::string name;
  std::uint64_t fingerprint = 0;
  double mean_response_ms = 0;
  double hit_ratio = 0;
  std::uint64_t result_probes = 0;
  // Coherence accounting (all zero for the frozen cells).
  std::uint64_t stale_result_invalidations = 0;
  std::uint64_t stale_list_invalidations = 0;
  std::uint64_t stale_ssd_result_misses = 0;
  std::uint64_t stale_ssd_list_misses = 0;
  std::uint64_t stale_marks = 0;
  // Ingest accounting.
  std::uint64_t docs = 0;
  std::uint64_t deletes = 0;
  std::uint64_t merges = 0;
  std::uint64_t merged_postings = 0;
  std::uint64_t segment_postings = 0;
  std::uint64_t deleted_docs = 0;
};

/// One churn episode: `ingest_every == 0` means a pure read workload.
/// When `keep` is non-null the churned system and its document mirror
/// are handed back for the oracle probes.
struct ChurnedState {
  std::unique_ptr<MaterializedCorpus> corpus;
  std::unique_ptr<MaterializedIndex> index;
  std::unique_ptr<SearchSystem> sys;
  std::vector<ingest::DocBag> mirror;
};

CellResult run_cell(const char* name, std::uint64_t queries,
                    std::uint64_t ingest_every, bool live,
                    ChurnedState* keep) {
  const CorpusConfig cc = bench_corpus();
  Rng corpus_rng(cc.seed);
  auto corpus = std::make_unique<MaterializedCorpus>(cc, corpus_rng);
  auto index = std::make_unique<MaterializedIndex>(*corpus);
  const SystemConfig cfg = bench_system(cc, live);
  auto sys = live ? std::make_unique<SearchSystem>(cfg, *index, *corpus)
                  : std::make_unique<SearchSystem>(cfg, *index);

  std::vector<ingest::DocBag> mirror;
  if (keep != nullptr) {
    mirror.reserve(corpus->num_docs());
    for (DocId d{}; d.raw() < corpus->num_docs(); ++d) {
      mirror.push_back(corpus->doc(d));
    }
  }

  Rng churn_rng(4242);
  std::uint64_t ingests = 0;
  Micros sum = micros(0);
  CellResult cell;
  cell.name = name;
  for (std::uint64_t i = 0; i < queries; ++i) {
    const auto out = sys->execute(sys->generator().next());
    sum += out.response;
    cell.fingerprint = fold_result(cell.fingerprint, out.result);
    if (ingest_every != 0 && i % ingest_every == ingest_every - 1) {
      const ingest::DocBag bag = make_bag(churn_rng, cc.vocab_size);
      (void)sys->ingest_document(bag);
      if (keep != nullptr) mirror.push_back(bag);
      if (++ingests % 4 == 0) {
        const auto victim =
            static_cast<DocId>(churn_rng.next_below(index->num_docs()));
        if (sys->delete_document(victim) && keep != nullptr) {
          mirror[victim.raw()].clear();  // slot stays — empty bag
        }
      }
    }
  }

  const CacheManagerStats& st = sys->cache_manager().stats();
  const auto hits = st.result_hits_mem + st.result_hits_ssd +
                    st.list_hits_mem + st.list_hits_ssd;
  const auto lookups = st.result_lookups + st.list_lookups;
  cell.mean_response_ms =
      queries ? sum / static_cast<double>(queries) / kMillisecond : 0.0;
  cell.hit_ratio =
      lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
              : 0.0;
  cell.result_probes = st.result_lookups;
  cell.stale_result_invalidations = st.stale_result_invalidations;
  cell.stale_list_invalidations = st.stale_list_invalidations;
  cell.stale_ssd_result_misses = st.stale_ssd_result_misses;
  cell.stale_ssd_list_misses = st.stale_ssd_list_misses;
  if (const SsdListCache* lc = sys->cache_manager().ssd_lists()) {
    cell.stale_marks = lc->stats().stale_marks;
  }
  if (live) {
    const IngestStats& is = sys->ingest_stats();
    cell.docs = is.docs;
    cell.deletes = is.deletes;
    cell.merges = is.merges;
    cell.merged_postings = is.merged_postings;
    if (const ingest::LiveIndex* li = sys->live_index()) {
      cell.segment_postings = li->segment().total_postings();
      cell.deleted_docs = li->deleted_docs();
    }
  }

  if (keep != nullptr) {
    keep->corpus = std::move(corpus);
    keep->index = std::move(index);
    keep->sys = std::move(sys);
    keep->mirror = std::move(mirror);
  }
  return cell;
}

/// Probe the churned system (caches and all) against a cache-less
/// system over the rebuilt document set: every result bit-identical.
bool oracle_probe(ChurnedState& churned, const MaterializedIndex& oracle,
                  std::uint64_t probes, const char* ctx) {
  SystemConfig ocfg = bench_system(bench_corpus(), /*live=*/false);
  ocfg.use_cache = false;
  SearchSystem truth(ocfg, const_cast<MaterializedIndex&>(oracle));
  for (std::uint64_t r = 0; r < probes; ++r) {
    const Query q = churned.sys->generator().query_for_rank(r);
    const auto got = churned.sys->execute(q);
    const auto want = truth.execute(truth.generator().query_for_rank(r));
    if (got.result.docs.size() != want.result.docs.size()) {
      std::fprintf(stderr, "%s: probe %llu size mismatch\n", ctx,
                   static_cast<unsigned long long>(r));
      return false;
    }
    for (std::size_t i = 0; i < got.result.docs.size(); ++i) {
      if (got.result.docs[i].doc != want.result.docs[i].doc ||
          std::bit_cast<std::uint32_t>(got.result.docs[i].score) !=
              std::bit_cast<std::uint32_t>(want.result.docs[i].score)) {
        std::fprintf(stderr, "%s: probe %llu rank %zu diverges\n", ctx,
                     static_cast<unsigned long long>(r), i);
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  print_environment("Extension — live-index churn (read/write mixes)");
  const std::uint64_t queries = default_queries(20'000);
  const std::uint64_t probes = 200;
  std::printf("%llu queries per cell, %llu oracle probes\n\n",
              static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(probes));

  std::vector<CellResult> cells;
  cells.push_back(
      run_cell("disabled", queries, 0, /*live=*/false, nullptr));
  cells.push_back(
      run_cell("enabled_idle", queries, 0, /*live=*/true, nullptr));
  cells.push_back(run_cell("churn_64", queries, 64, /*live=*/true, nullptr));
  ChurnedState heavy;
  cells.push_back(run_cell("churn_8", queries, 8, /*live=*/true, &heavy));

  // Gate 1: the zero-churn invariant. An idle live system draws the
  // same RNG stream and produces the same bits as no subsystem at all.
  const bool idle_ok = cells[0].fingerprint == cells[1].fingerprint;

  // Gate 2: oracle equivalence of the heavy cell, mid-segment and
  // after a forced merge (the merge must be content-transparent).
  const CorpusConfig cc = bench_corpus();
  MaterializedCorpus oracle_corpus(cc, heavy.mirror);
  MaterializedIndex oracle_index(oracle_corpus);
  const bool pre_ok =
      oracle_probe(heavy, oracle_index, probes, "pre-merge");
  heavy.sys->merge_now();
  const bool post_ok =
      oracle_probe(heavy, oracle_index, probes, "post-merge");
  maybe_write_report(heavy.sys->telemetry_registry().snapshot(),
                     "ext_ingest");

  Table t({"cell", "fingerprint", "mean (ms)", "HR", "docs", "dels",
           "merges", "stale res", "stale list", "ssd marks"});
  for (const CellResult& c : cells) {
    t.add_row({c.name, std::to_string(c.fingerprint),
               Table::num(c.mean_response_ms, 3),
               Table::percent(c.hit_ratio), std::to_string(c.docs),
               std::to_string(c.deletes), std::to_string(c.merges),
               std::to_string(c.stale_result_invalidations),
               std::to_string(c.stale_list_invalidations),
               std::to_string(c.stale_marks)});
  }
  t.print();
  std::printf(
      "\nzero-churn fingerprint: %s; oracle equivalence: pre-merge %s, "
      "post-merge %s\n",
      idle_ok ? "identical" : "DIVERGED", pre_ok ? "exact" : "DIVERGED",
      post_ok ? "exact" : "DIVERGED");

  return finish_bench(
      "ext_ingest",
      {{"idle_matches_disabled", idle_ok},
       {"oracle_pre_merge", pre_ok},
       {"oracle_post_merge", post_ok}},
      [&](telemetry::JsonWriter& w) {
        w.key("queries");
        w.value(queries);
        w.key("oracle_probes");
        w.value(probes);
        w.key("cells");
        w.begin_array();
        for (const CellResult& c : cells) {
          w.begin_object();
          w.key("name");
          w.value(c.name);
          w.key("fingerprint");
          w.value(c.fingerprint);
          w.key("mean_response_ms");
          w.value(c.mean_response_ms);
          w.key("hit_ratio");
          w.value(c.hit_ratio);
          w.key("result_probes");
          w.value(c.result_probes);
          w.key("stale");
          w.begin_object();
          w.key("result_invalidations");
          w.value(c.stale_result_invalidations);
          w.key("list_invalidations");
          w.value(c.stale_list_invalidations);
          w.key("ssd_result_misses");
          w.value(c.stale_ssd_result_misses);
          w.key("ssd_list_misses");
          w.value(c.stale_ssd_list_misses);
          w.key("ssd_list_marks");
          w.value(c.stale_marks);
          w.end_object();
          w.key("ingest");
          w.begin_object();
          w.key("docs");
          w.value(c.docs);
          w.key("deletes");
          w.value(c.deletes);
          w.key("merges");
          w.value(c.merges);
          w.key("merged_postings");
          w.value(c.merged_postings);
          w.key("segment_postings");
          w.value(c.segment_postings);
          w.key("deleted_docs");
          w.value(c.deleted_docs);
          w.end_object();
          w.end_object();
        }
        w.end_array();
      });
}
