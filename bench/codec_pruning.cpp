// Gate bench: compressed posting blocks + block-max pruning
// (DESIGN.md §13), emitted as BENCH_codec_pruning.json and validated by
// scripts/check_bench_json.py; runs in tier-1 as codec_pruning_smoke.
//
// Three gates plus observability producers:
//  * packed_ratio — encoded vs raw posting bytes on the perf_driver
//    daat corpus; the block-packed ratio must be >= 2.5x;
//  * results_identical, pruned_fraction — the block-max
//    MaxScoreDaatProcessor must return top-K bit-identical to the
//    exhaustive DaatProcessor on every query and leave at least 10 % of
//    the postings unevaluated. Both counts are deterministic; both
//    processors' q/s are reported, not gated, because wall time on a
//    shared machine is not;
//  * a daat_skip trace span + daat.pruning.* registry counters give the
//    pruning observability surfaces a live producer.
//
// Override the query count with SSDSE_DAAT_QUERIES; output with
// SSDSE_BENCH_OUT.
#include <cstdio>
#include <cstring>

#include "bench/bench_common.hpp"
#include "src/index/block_postings.hpp"
#include "src/telemetry/registry.hpp"
#include "src/telemetry/tracer.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

/// Share of the driver postings the bound checks must leave
/// unevaluated (0.15 on this workload at 500 to 20k queries).
constexpr double kMinPrunedFraction = 0.10;
constexpr double kMinPackedRatio = 2.5;

struct CompressionResult {
  Bytes raw_bytes = 0;
  Bytes packed_bytes = 0;
  Bytes svb_bytes = 0;
  double packed_ratio = 0;
  double svb_ratio = 0;
  std::uint64_t blocks = 0;
};

CompressionResult run_compression(const DaatIndex& daat) {
  CompressionResult c;
  const BlockPostingStore& packed = daat.block_store();
  c.raw_bytes = packed.total_postings() * kPostingBytes;
  // The DaatIndex's own store is block-packed (raw corpus codec falls
  // back to it); encode the stream-vbyte variant side by side.
  c.packed_bytes = packed.encoded_bytes();
  c.blocks = packed.total_blocks();
  BlockPostingStore svb(CodecKind::kStreamVByte);
  svb.reserve(packed.num_terms(), packed.total_postings());
  for (TermId t{}; t.raw() < packed.num_terms(); ++t) {
    const DocSortedView v = daat.doc_sorted(t);
    svb.add_list(v.postings(), v.idf());
  }
  c.svb_bytes = svb.encoded_bytes();
  c.packed_ratio = static_cast<double>(c.raw_bytes) /
                   static_cast<double>(c.packed_bytes);
  c.svb_ratio =
      static_cast<double>(c.raw_bytes) / static_cast<double>(c.svb_bytes);
  return c;
}

struct PruningResult {
  std::uint64_t queries = 0;
  double oracle_wall_ms = 0;
  double oracle_qps = 0;
  double pruned_wall_ms = 0;
  double pruned_qps = 0;
  bool results_identical = false;
  PruningStats stats;
  double postings_pruned_fraction = 0;
};

PruningResult run_pruning(const DaatWorkload& w,
                          telemetry::QueryTracer& tracer) {
  PruningResult p;
  p.queries = w.batch.size();

  // Oracle pass: exhaustive processor, the reference top-K.
  DaatProcessor oracle(kTopK);
  std::vector<ResultEntry> oracle_results;
  oracle_results.reserve(w.batch.size());
  auto t0 = Clock::now();
  for (const Query& q : w.batch) {
    oracle_results.push_back(oracle.intersect(*w.daat, q));
  }
  p.oracle_wall_ms = ms_since(t0);
  p.oracle_qps =
      1000.0 * static_cast<double>(p.queries) / p.oracle_wall_ms;

  // Pruned pass: block-max processor, per-query bit-identical check.
  // Each query gets a daat_skip span charging the postings the bound
  // checks proved irrelevant (at the scorer's nominal ns/posting).
  MaxScoreDaatProcessor pruned(kTopK);
  bool identical = true;
  std::uint64_t total_postings = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < w.batch.size(); ++i) {
    const auto before = pruned.pruning().postings_pruned;
    tracer.begin_query(w.batch[i].id);
    DaatStats stats;
    const ResultEntry r = pruned.intersect(*w.daat, w.batch[i], &stats);
    const auto saved =
        static_cast<Micros>(pruned.pruning().postings_pruned - before);
    tracer.add_span(telemetry::TraceStage::kDaatSkip, saved * 0.008);
    tracer.end_query(saved * 0.008);
    total_postings += stats.postings_touched;
    const ResultEntry& o = oracle_results[i];
    if (r.docs.size() != o.docs.size()) {
      identical = false;
      continue;
    }
    for (std::size_t k = 0; k < r.docs.size(); ++k) {
      std::uint32_t rb;
      std::uint32_t ob;
      std::memcpy(&rb, &r.docs[k].score, sizeof rb);
      std::memcpy(&ob, &o.docs[k].score, sizeof ob);
      identical &= r.docs[k].doc == o.docs[k].doc && rb == ob;
    }
  }
  p.pruned_wall_ms = ms_since(t0);
  p.pruned_qps =
      1000.0 * static_cast<double>(p.queries) / p.pruned_wall_ms;
  p.results_identical = identical;
  p.stats = pruned.pruning();
  const double denom = static_cast<double>(total_postings) +
                       static_cast<double>(p.stats.postings_pruned);
  p.postings_pruned_fraction =
      denom > 0 ? static_cast<double>(p.stats.postings_pruned) / denom : 0;
  return p;
}

}  // namespace

int main() {
  print_environment("Gate — compressed posting blocks + block-max pruning");
  const auto queries = env_count("SSDSE_DAAT_QUERIES", 20'000);

  DaatWorkload workload(queries);
  const CompressionResult c = run_compression(*workload.daat);
  std::printf(
      "  compression: raw %.1f MiB -> packed %.1f MiB (%.2fx), "
      "svb %.1f MiB (%.2fx), gate >= %.1fx\n",
      static_cast<double>(c.raw_bytes) / MiB,
      static_cast<double>(c.packed_bytes) / MiB, c.packed_ratio,
      static_cast<double>(c.svb_bytes) / MiB, c.svb_ratio, kMinPackedRatio);

  // The pruning counters publish through the registry under the same
  // naming conventions the lint enforces.
  telemetry::QueryTracer tracer;
  const PruningResult p = run_pruning(workload, tracer);
  telemetry::MetricsRegistry registry;
  registry.counter("daat.pruning.blocks_decoded", &p.stats.blocks_decoded);
  registry.counter("daat.pruning.blocks_skipped", &p.stats.blocks_skipped);
  registry.counter("daat.pruning.prune_jumps", &p.stats.prune_jumps);
  registry.counter("daat.pruning.postings_pruned",
                   &p.stats.postings_pruned);
  std::printf("  oracle : %8.1f q/s (exhaustive, reported only)\n",
              p.oracle_qps);
  std::printf("  pruned : %8.1f q/s (reported only) — results %s\n",
              p.pruned_qps,
              p.results_identical ? "bit-identical" : "DIVERGED");
  std::printf(
      "  pruning: %llu jumps, %llu blocks skipped, %llu blocks decoded, "
      "%.1f%% of postings pruned, gate >= %.0f%% (daat_skip span total "
      "%.0f us, %zu registry metrics)\n",
      static_cast<unsigned long long>(p.stats.prune_jumps),
      static_cast<unsigned long long>(p.stats.blocks_skipped),
      static_cast<unsigned long long>(p.stats.blocks_decoded),
      100.0 * p.postings_pruned_fraction, 100.0 * kMinPrunedFraction,
      tracer.stage_hist(telemetry::TraceStage::kDaatSkip).sum(),
      registry.size());

  return finish_bench(
      "codec_pruning",
      {{"packed_ratio", c.packed_ratio >= kMinPackedRatio},
       {"results_identical", p.results_identical},
       {"pruned_fraction", p.postings_pruned_fraction >= kMinPrunedFraction}},
      [&](telemetry::JsonWriter& w) {
        w.key("compression");
        w.begin_object();
        w.key("raw_bytes");
        w.value(c.raw_bytes);
        w.key("packed_bytes");
        w.value(c.packed_bytes);
        w.key("svb_bytes");
        w.value(c.svb_bytes);
        w.key("packed_ratio");
        w.value(c.packed_ratio);
        w.key("svb_ratio");
        w.value(c.svb_ratio);
        w.key("blocks");
        w.value(c.blocks);
        w.end_object();
        w.key("pruning");
        w.begin_object();
        w.key("queries");
        w.value(p.queries);
        w.key("oracle_qps");
        w.value(p.oracle_qps);
        w.key("oracle_wall_ms");
        w.value(p.oracle_wall_ms);
        w.key("pruned_qps");
        w.value(p.pruned_qps);
        w.key("pruned_wall_ms");
        w.value(p.pruned_wall_ms);
        w.key("blocks_decoded");
        w.value(p.stats.blocks_decoded);
        w.key("blocks_skipped");
        w.value(p.stats.blocks_skipped);
        w.key("prune_jumps");
        w.value(p.stats.prune_jumps);
        w.key("postings_pruned");
        w.value(p.stats.postings_pruned);
        w.key("postings_pruned_fraction");
        w.value(p.postings_pruned_fraction);
        w.end_object();
      });
}
