// Shared helpers for the reproduction benches: the standard experiment
// header (Tables II/III), common configurations, the DAAT workload,
// small timing and formatting utilities, and the one writer of gated
// bench artifacts.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/daat.hpp"
#include "src/hybrid/run_report.hpp"
#include "src/hybrid/search_system.hpp"
#include "src/telemetry/json_writer.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"
#include "src/workload/query_log.hpp"

namespace ssdse::bench {

/// Print the simulated environment (the content of the paper's Tables
/// II and III) so every bench output is self-describing.
inline void print_environment(const char* experiment) {
  std::printf("=== %s ===\n", experiment);
  std::printf(
      "simulated environment (paper Tables II/III):\n"
      "  SSD: page-mapping FTL, 2 KiB pages, 64-page (128 KiB) blocks,\n"
      "       read 32.725 us, program 101.475 us, erase 1.5 ms\n"
      "  HDD: 7200 RPM, 0.8-12 ms seek, 100 MiB/s transfer\n"
      "  corpus: synthetic enwiki-like (Zipf df); query log: AOL-like "
      "Zipf\n\n");
}

/// The positive count in environment variable `name`, else `fallback`.
inline std::uint64_t env_count(const char* name, std::uint64_t fallback) {
  if (const char* env = std::getenv(name)) {
    const auto v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return fallback;
}

/// Number of queries for full-system runs; override with SSDSE_QUERIES
/// to trade fidelity for speed.
inline std::uint64_t default_queries(std::uint64_t fallback = 50'000) {
  return env_count("SSDSE_QUERIES", fallback);
}

// ssdse-lint: allow(nondeterminism) wall-clock measures real throughput only
using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// The DAAT workload: a 40k-doc materialized corpus (seed 2012), its
/// DaatIndex, and a fixed batch from the query log (seed 17).
/// perf_driver's daat phase pins its fingerprint at 20k queries;
/// codec_compression sizes the same corpus's lists under the block
/// codecs.
struct DaatWorkload {
  explicit DaatWorkload(std::uint64_t queries) {
    CorpusConfig cc;
    cc.num_docs = 40'000;
    cc.vocab_size = 2'000;
    cc.terms_per_doc = 60;
    cc.seed = 2012;
    Rng rng(99);
    corpus = std::make_unique<MaterializedCorpus>(cc, rng);
    index = std::make_unique<MaterializedIndex>(*corpus);
    daat = std::make_unique<DaatIndex>(*index);

    QueryLogConfig qc;
    qc.distinct_queries = 50'000;
    qc.vocab_size = cc.vocab_size;
    qc.min_terms = 2;
    qc.max_terms = 3;
    qc.seed = 17;
    QueryLogGenerator gen(qc);
    batch.reserve(queries);
    for (std::uint64_t i = 0; i < queries; ++i) batch.push_back(gen.next());
  }

  std::unique_ptr<MaterializedCorpus> corpus;
  std::unique_ptr<MaterializedIndex> index;
  std::unique_ptr<DaatIndex> daat;
  std::vector<Query> batch;
};

/// Fold one query into the daat fingerprint: docs_scored +
/// postings_touched, then an FNV-style mix of each (doc, score bits).
inline std::uint64_t fold_checksum(std::uint64_t checksum,
                                   const DaatStats& stats,
                                   const ResultEntry& r) {
  checksum += stats.docs_scored + stats.postings_touched;
  for (const ScoredDoc& d : r.docs) {
    std::uint32_t bits;
    std::memcpy(&bits, &d.score, sizeof bits);
    checksum = checksum * 1099511628211ull + d.doc.raw() + bits;
  }
  return checksum;
}

/// The paper's standard 5M-document cell.
inline SystemConfig paper_system(CachePolicy policy,
                                 std::uint64_t docs = 5'000'000,
                                 Bytes mem_budget = 10 * MiB) {
  SystemConfig cfg;
  cfg.set_num_docs(docs);
  cfg.set_memory_budget(mem_budget);
  cfg.cache.policy = policy;
  cfg.training_queries = 10'000;
  return cfg;
}

inline std::string fmt_ms(Micros us) { return Table::num(us / kMillisecond, 2); }

/// Benches emit a telemetry run report (DESIGN.md §9) for their
/// representative cell when SSDSE_TELEMETRY_OUT names a path. `metrics`
/// is the run's registry snapshot: one system's, or
/// SearchCluster::telemetry_snapshot() for a cluster run.
inline void maybe_write_report(const telemetry::RegistrySnapshot& metrics,
                               const std::string& run_name,
                               const TrafficResult* traffic = nullptr,
                               const ReplicationSnapshot* replication = nullptr) {
  if (const char* path = std::getenv("SSDSE_TELEMETRY_OUT")) {
    if (write_json_file(path, render_run_report(run_name, metrics, traffic,
                                                replication))) {
      std::printf("wrote telemetry report %s (%s)\n", path,
                  run_name.c_str());
    } else {
      std::fprintf(stderr, "cannot write telemetry report %s\n", path);
    }
  }
}

/// One named verdict of a gated bench.
using Gate = std::pair<const char*, bool>;

/// Finish a gated bench: write its artifact
///   {"bench", "schema_version": 2, <body>, "gates": {name: bool}, "pass"}
/// to $SSDSE_BENCH_OUT (default BENCH_<bench>.json). `write_body` adds
/// the evidence each gate was decided on; `pass` is every gate passing.
/// scripts/check_bench_json.py checks the envelope and re-derives each
/// gate from that evidence. Returns the process exit code: 0 when every
/// gate passes and the artifact was written, else 1.
template <class WriteBody>
int finish_bench(const std::string& bench, std::initializer_list<Gate> gates,
                 WriteBody&& write_body) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value(bench);
  w.key("schema_version");
  w.value(std::uint64_t{2});
  write_body(w);
  bool pass = true;
  w.key("gates");
  w.begin_object();
  for (const auto& [name, ok] : gates) {
    w.key(name);
    w.value(ok);
    if (!ok) std::fprintf(stderr, "%s: gate %s FAILED\n", bench.c_str(), name);
    pass = pass && ok;
  }
  w.end_object();
  w.key("pass");
  w.value(pass);
  w.end_object();

  const char* env = std::getenv("SSDSE_BENCH_OUT");
  const std::string path = env ? env : "BENCH_" + bench + ".json";
  if (!write_json_file(path, w.str())) {
    std::fprintf(stderr, "%s: cannot write %s\n", bench.c_str(),
                 path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return pass ? 0 : 1;
}

}  // namespace ssdse::bench
