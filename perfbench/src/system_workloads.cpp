// Workloads over one SearchSystem:
//   web_cbslru        analytic 5M-doc index, CBSLRU, DRAM + SSD L2;
//   materialized_read materialized corpus, real postings and scoring;
//   live_churn        the same corpus with ingests, deletes and merges.
//
// The untraced run times each SearchSystem::execute (and each mutation)
// in a closed loop. The traced run replays the same seed twice on fresh
// systems: pass A through execute, alternating the program's tracer on
// and off in blocks; pass B through the public CacheManager / Scorer
// calls that execute is made of, one span per call. Both passes must end
// with the same result fingerprint and model counters.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "src/engine/scorer.hpp"
#include "src/hybrid/search_system.hpp"
#include "src/ingest/live_index.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ssdse::Micros;
using ssdse::Query;
using ssdse::ResultEntry;
using ssdse::SearchSystem;

struct SystemSpec {
  std::string name;
  std::uint64_t seed = 0;
  bool materialized = false;
  bool live = false;
  ssdse::CorpusConfig corpus;  // materialized workloads
  ssdse::SystemConfig cfg;
  std::uint64_t warmup = 0;        // read-only queries before timing
  std::uint64_t churn_warmup = 0;  // then queries with mutations (live)
  std::uint64_t queries = 0;       // timed queries
  std::uint64_t ingest_every = 0;  // one ingest after every N queries
  std::uint64_t delete_every = 0;  // one delete after every N-th ingest
  std::uint32_t bag_terms = 0;     // distinct terms per ingested document
  std::uint64_t probes = 0;        // output checks after the timed loop
  std::uint64_t setups = 1;        // set-ups timed for setup_s
};

SystemSpec make_spec(const Args& a) {
  SystemSpec s;
  s.name = a.str("workload");
  s.seed = a.u64("seed");
  s.materialized = s.name != "web_cbslru";
  s.live = s.name == "live_churn";
  if (s.name != "web_cbslru" && s.name != "materialized_read" &&
      s.name != "live_churn") {
    throw std::invalid_argument("unknown workload " + s.name);
  }
  ssdse::SystemConfig& cfg = s.cfg;
  cfg.cache.policy = ssdse::CachePolicy::kCbslru;
  if (s.materialized) {
    s.corpus.num_docs = a.u64("docs");
    s.corpus.vocab_size = static_cast<std::uint32_t>(a.u64("vocab"));
    s.corpus.terms_per_doc = a.num("terms_per_doc");
    s.corpus.max_df_fraction = a.num("max_df");
    cfg.corpus = s.corpus;
    cfg.log.vocab_size = s.corpus.vocab_size;
  } else {
    cfg.set_num_docs(a.u64("docs"));
  }
  cfg.log.distinct_queries = a.u64("distinct_queries");
  cfg.log.min_terms = static_cast<std::uint32_t>(a.u64("min_terms"));
  cfg.log.max_terms = static_cast<std::uint32_t>(a.u64("max_terms"));
  if (cfg.log.max_terms > 64) {
    throw std::invalid_argument("max_terms above 64 is not supported");
  }
  cfg.set_memory_budget(a.bytes("mem_budget"));
  cfg.cache.ssd_result_capacity = a.bytes("ssd_result");
  cfg.cache.ssd_list_capacity = a.bytes("ssd_list");
  size_cache_ssd(cfg, a.bytes("ssd_slack"));
  cfg.training_queries = a.u64("training_queries");
  if (s.live) {
    cfg.ingest.enabled = true;
    cfg.ingest.merge_segment_postings = a.u64("merge_postings");
    s.ingest_every = a.u64("ingest_every");
    s.delete_every = a.u64("delete_every");
    s.bag_terms = static_cast<std::uint32_t>(a.u64("bag_terms"));
    s.churn_warmup = a.u64("churn_warmup");
    if (s.ingest_every == 0 || s.delete_every == 0 || s.bag_terms == 0) {
      throw std::invalid_argument("live_churn needs a mutation schedule");
    }
  }
  s.warmup = a.u64("warmup");
  s.queries = a.u64("queries");
  s.probes = a.u64("probes");
  s.setups = std::max<std::uint64_t>(1, a.u64("setups"));
  // At least 1000 latency samples: 10 beyond the p99.
  if (s.queries < 1000) {
    throw std::invalid_argument("--queries must be at least 1000");
  }
  a.reject_unused();
  return s;
}

/// One server with everything the benchmark feeds it.
struct Rig {
  std::unique_ptr<ssdse::MaterializedCorpus> corpus;
  std::unique_ptr<ssdse::MaterializedIndex> index;
  std::unique_ptr<SearchSystem> sys;
  std::unique_ptr<ssdse::QueryLogGenerator> gen;
  ssdse::Rng churn{0};
  std::vector<ssdse::ingest::DocBag> mirror;  // live: every doc slot's bag
  std::vector<bool> deleted;
  std::uint64_t served = 0;   // queries executed since churn began
  std::uint64_t ingests = 0;
  double materialize_s = 0;   // corpus + MaterializedIndex build
};

std::unique_ptr<Rig> build_rig(const SystemSpec& s) {
  auto rig = std::make_unique<Rig>();
  if (s.materialized) {
    const std::uint64_t t0 = now_ns();
    ssdse::Rng corpus_rng(s.corpus.seed);
    rig->corpus =
        std::make_unique<ssdse::MaterializedCorpus>(s.corpus, corpus_rng);
    rig->index = std::make_unique<ssdse::MaterializedIndex>(*rig->corpus);
    rig->materialize_s = static_cast<double>(now_ns() - t0) / 1e9;
  }
  if (s.live) {
    rig->sys = std::make_unique<SearchSystem>(s.cfg, *rig->index, *rig->corpus);
    rig->churn = ssdse::Rng(stream_seed(s.seed, 2));
    rig->mirror.reserve(rig->corpus->num_docs());
    for (ssdse::DocId d{}; d.raw() < rig->corpus->num_docs(); ++d) {
      rig->mirror.push_back(rig->corpus->doc(d));
    }
    rig->deleted.assign(rig->mirror.size(), false);
  } else if (s.materialized) {
    rig->sys = std::make_unique<SearchSystem>(s.cfg, *rig->index);
  } else {
    rig->sys = std::make_unique<SearchSystem>(s.cfg);
  }
  // The benchmark's own query stream must be the server's log.
  const ssdse::QueryLogConfig& log = rig->sys->config().log;
  if (log.vocab_size != s.cfg.log.vocab_size || log.seed != s.cfg.log.seed) {
    throw std::logic_error("server resolved a different query log");
  }
  return rig;
}

ssdse::ingest::DocBag make_bag(ssdse::Rng& rng, std::uint32_t vocab,
                               std::uint32_t terms) {
  ssdse::ingest::DocBag bag;
  while (bag.size() < terms) {
    const auto t = static_cast<ssdse::TermId>(rng.next_below(vocab));
    const bool dup = std::any_of(bag.begin(), bag.end(),
                                 [t](const auto& p) { return p.first == t; });
    if (!dup) {
      bag.emplace_back(t, 1 + static_cast<std::uint32_t>(rng.next_below(5)));
    }
  }
  std::sort(bag.begin(), bag.end());
  return bag;
}

/// Host wall of every mutation in a pass, and where its spans go.
struct MutationLog {
  std::vector<double> wall_us;  // per ingest / delete call
  SpanLog* spans = nullptr;
};

/// Apply the mutations due after the rig's latest query: one ingest per
/// `ingest_every` queries, and a delete of a live document after every
/// `delete_every`-th ingest. Returns the number of mutations applied.
std::uint64_t mutate(Rig& rig, const SystemSpec& s, Report& rep,
                     MutationLog* log) {
  if (s.ingest_every == 0 || rig.served % s.ingest_every != 0) return 0;
  SearchSystem& sys = *rig.sys;
  const auto timed = [&](auto&& call) {
    const std::uint64_t merges0 = sys.ingest_stats().merges;
    const std::uint64_t t0 = now_ns();
    const auto out = call();
    const std::uint64_t t1 = now_ns();
    if (log != nullptr) {
      log->wall_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (log->spans != nullptr) {
        log->spans->add(rig.served, sys.ingest_stats().merges != merges0
                                        ? Layer::kIngestMerge
                                        : Layer::kIngestApply,
                        t0, t1);
      }
    }
    return out;
  };

  ssdse::ingest::DocBag bag =
      make_bag(rig.churn, sys.index().vocab_size(), s.bag_terms);
  ssdse::ingest::DocBag arg = bag;
  const ssdse::DocId id =
      timed([&] { return sys.ingest_document(std::move(arg)); });
  rep.check(id.raw() == rig.mirror.size(), "ingest assigned an unexpected id");
  rig.mirror.push_back(std::move(bag));
  rig.deleted.push_back(false);
  std::uint64_t applied = 1;
  if (++rig.ingests % s.delete_every == 0) {
    std::uint64_t victim = 0;
    do {
      victim = rig.churn.next_below(rig.mirror.size());
    } while (rig.deleted[victim]);
    const auto doc = static_cast<ssdse::DocId>(victim);
    const bool ok = timed([&] { return sys.delete_document(doc); });
    rep.check(ok, "delete of a live document failed");
    rig.deleted[victim] = true;
    rig.mirror[victim].clear();  // the slot stays, empty
    ++applied;
  }
  return applied;
}

/// SearchSystem::execute spelled out through the public layer calls, in
/// the same order, each call timed as one span.
ResultEntry execute_by_layers(Rig& rig, const ssdse::Scorer& scorer,
                              const Query& q, std::uint64_t qid, SpanLog& log,
                              std::uint64_t* postings) {
  ssdse::CacheManager& cm = rig.sys->cache_manager();
  cm.advance_time();
  Micros t = ssdse::micros(0);
  ssdse::Tier tier = ssdse::Tier::kMemory;
  const ResultEntry* hit = nullptr;
  {
    Span span(&log, qid, Layer::kCacheLookupResult);
    hit = cm.lookup_result(q.id, q.terms, &tier, &t);
  }
  if (hit != nullptr) return *hit;

  std::uint64_t covered = 0;  // terms served by a cached intersection
  for (std::size_t i = 0; i + 1 < q.terms.size(); i += 2) {
    if (cm.lookup_intersection(q.terms[i], q.terms[i + 1], &t)) {
      covered |= 3ull << i;
    }
  }
  for (std::size_t i = 0; i < q.terms.size(); ++i) {
    if ((covered >> i) & 1) continue;
    Span span(&log, qid, Layer::kCacheFetchList);
    (void)cm.fetch_list(q.terms[i], &t);
  }
  ssdse::ScoreOutcome scored;
  {
    Span span(&log, qid, Layer::kEngineScore);
    scored = scorer.score(rig.sys->index(), q);
  }
  *postings += scored.total_postings;
  {
    Span span(&log, qid, Layer::kCacheInsertResult);
    cm.insert_result(scored.result);
  }
  for (std::size_t i = 0; i + 1 < q.terms.size(); i += 2) {
    if (!((covered >> i) & 1)) {
      cm.insert_intersection(q.terms[i], q.terms[i + 1]);
    }
  }
  return std::move(scored.result);
}

Counters counters_of(const SearchSystem& sys) {
  return model_counters(sys.telemetry_registry().snapshot());
}

/// Build and warm a server; `*seconds` is the set-up time (the query
/// stream is positioned before the clock starts).
std::unique_ptr<Rig> set_up(const SystemSpec& s, Report& rep,
                            double* seconds) {
  auto gen = query_stream(s.cfg.log, s.seed);
  const std::uint64_t t0 = now_ns();
  auto rig = build_rig(s);
  rig->gen = std::move(gen);
  for (std::uint64_t i = 0; i < s.warmup; ++i) {
    (void)rig->sys->execute(rig->gen->next());
  }
  for (std::uint64_t i = 0; i < s.churn_warmup; ++i) {
    (void)rig->sys->execute(rig->gen->next());
    ++rig->served;
    mutate(*rig, s, rep, nullptr);
  }
  *seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return rig;
}

enum class Path { kExecute, kLayers };

struct PassResult {
  std::uint64_t fingerprint = kFnvSeed;
  Counters before;  // model counters when timing starts
  Counters after;   // ... after the timed loop and the final drain
  std::uint64_t queries = 0;
  std::uint64_t mutations = 0;
  std::vector<double> wall_us;  // per query
  std::vector<double> sim_ms;   // per query, simulated response
  std::vector<Block> blocks;
  MutationLog writes;
  double drain_ms = 0;
  double peak_rss_mib = 0;
  std::uint64_t postings = 0;
  // Pass A of a traced run.
  TracerSplit tracer;
  std::array<double, 9> situation_ns{};
  std::array<std::uint64_t, 9> situation_n{};
};

PassResult run_pass(Rig& rig, const SystemSpec& s, Path path,
                    bool toggle_tracer, SpanLog* spans, Report& rep) {
  SearchSystem& sys = *rig.sys;
  const ssdse::Scorer scorer(sys.config().scorer);
  PassResult r;
  r.wall_us.resize(s.queries);
  if (path == Path::kExecute) r.sim_ms.resize(s.queries);
  r.writes.spans = spans;
  r.before = counters_of(sys);

  const std::uint64_t block_len = s.queries / kBlocks;
  std::uint64_t block_ops = 0;
  std::uint64_t block_t0 = now_ns();
  for (std::uint64_t i = 0; i < s.queries; ++i) {
    std::uint64_t t0 = 0, t1 = 0;
    if (path == Path::kExecute) {
      const Query q = rig.gen->next();
      const bool tracing = TracerSplit::on_at(i);
      if (toggle_tracer && i % kTracerToggle == 0) sys.set_tracing(tracing);
      t0 = now_ns();
      const SearchSystem::QueryOutcome out = sys.execute(q);
      t1 = now_ns();
      fold_result(r.fingerprint, out.result);
      r.sim_ms[i] = out.response.value() / 1000.0;
      const double ns = static_cast<double>(t1 - t0);
      if (toggle_tracer) {
        r.tracer.add(tracing, ns);
        const auto si = static_cast<std::size_t>(out.situation);
        r.situation_ns[si] += ns;
        ++r.situation_n[si];
      }
    } else {
      Query q;
      {
        Span span(spans, i, Layer::kWorkloadNext);
        q = rig.gen->next();
      }
      t0 = now_ns();
      const ResultEntry res =
          execute_by_layers(rig, scorer, q, i, *spans, &r.postings);
      t1 = now_ns();
      fold_result(r.fingerprint, res);
    }
    r.wall_us[i] = static_cast<double>(t1 - t0) / 1e3;
    ++rig.served;
    const std::uint64_t m = mutate(rig, s, rep, &r.writes);
    r.mutations += m;
    block_ops += 1 + m;
    if ((i + 1) % block_len == 0) {
      const std::uint64_t now = now_ns();
      const std::size_t begin = r.blocks.empty() ? 0 : r.blocks.back().end;
      r.blocks.push_back({begin, i + 1,
                          static_cast<double>(block_ops) * 1e9 /
                              static_cast<double>(now - block_t0)});
      block_t0 = now;
      block_ops = 0;
    }
  }
  r.queries = s.queries;
  if (toggle_tracer) sys.set_tracing(true);
  {
    Span span(spans, s.queries, Layer::kCacheDrain);
    const std::uint64_t t0 = now_ns();
    sys.drain();
    r.drain_ms = static_cast<double>(now_ns() - t0) / 1e6;
  }
  r.peak_rss_mib = peak_rss_mib();
  r.after = counters_of(sys);
  fold_counters(r.fingerprint, r.after);
  return r;
}

/// A cache-less server over an independently built index holding the
/// same documents; probes compare the measured server against it.
void probe_outputs(Rig& rig, const SystemSpec& s, Report& rep) {
  ssdse::SystemConfig ocfg = s.cfg;
  ocfg.use_cache = false;
  ocfg.ingest.enabled = false;
  std::unique_ptr<ssdse::MaterializedCorpus> corpus;
  std::unique_ptr<ssdse::MaterializedIndex> index;
  std::unique_ptr<SearchSystem> truth;
  if (s.live) {
    corpus = std::make_unique<ssdse::MaterializedCorpus>(s.corpus,
                                                         rig.mirror);
  } else if (s.materialized) {
    ssdse::Rng corpus_rng(s.corpus.seed);
    corpus = std::make_unique<ssdse::MaterializedCorpus>(s.corpus,
                                                         corpus_rng);
  }
  if (corpus) {
    index = std::make_unique<ssdse::MaterializedIndex>(*corpus);
    truth = std::make_unique<SearchSystem>(ocfg, *index);
  } else {
    truth = std::make_unique<SearchSystem>(ocfg);
  }
  // Replay the head of the measured stream: hot repeats and cold misses.
  ssdse::QueryLogGenerator probe_gen(rig.sys->config().log);
  for (std::uint64_t i = 0; i < s.probes; ++i) {
    const Query q = probe_gen.next();
    const auto got = rig.sys->execute(q);
    const auto want = truth->execute(q);
    rep.check(same_result(got.result, want.result),
              "served result differs from the cache-less oracle");
  }
}

void print_fingerprint(const SystemSpec& s, const PassResult& r) {
  std::printf(
      "fingerprint %s seed=%llu queries=%llu mutations=%llu: %016llx "
      "(erases=%llu gc=%llu result_probes=%llu)\n",
      s.name.c_str(), static_cast<unsigned long long>(s.seed),
      static_cast<unsigned long long>(r.queries),
      static_cast<unsigned long long>(r.mutations),
      static_cast<unsigned long long>(r.fingerprint),
      static_cast<unsigned long long>(
          get(r.after, "ssd.cache.nand.block_erases")),
      static_cast<unsigned long long>(get(r.after, "ssd.cache.gc.invocations")),
      static_cast<unsigned long long>(get(r.after, "cache.result.probes")));
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return mean_of(sum, v.size());
}

}  // namespace

Report run_system_workload(const Args& args, bool traced) {
  const SystemSpec s = make_spec(args);
  Report rep;

  if (!traced) {
    // setup_s is the median of several complete set-ups: the first one
    // is measured, the others follow the output checks, so peak RSS
    // covers one set-up and the timed loop.
    std::vector<double> setup_s(s.setups);
    std::unique_ptr<Rig> rig = set_up(s, rep, &setup_s[0]);
    const Counters warm = counters_of(*rig->sys);
    rep.check(get(warm, "ssd.cache.gc.invocations") > 0,
              "warm-up ended before the first SSD garbage collection");
    PassResult r = run_pass(*rig, s, Path::kExecute, false, nullptr, rep);
    print_fingerprint(s, r);
    const Counters window = delta(r.after, r.before);
    check_hit_invariants(rep, window);

    EndToEnd e;
    const Quiet quiet = quiet_blocks(r.wall_us, r.blocks);
    e.qps = quiet.qps;
    e.peak_rss_mib = r.peak_rss_mib;
    fill_model_metrics(e, window, r.queries);
    e.wall_us_p50 = quiet.wall_us_p50;
    e.wall_us_p99 = quiet.wall_us_p99;
    e.sim_resp_ms_p50 = percentile(r.sim_ms, 0.50);
    e.sim_resp_ms_p99 = percentile(r.sim_ms, 0.99);
    std::printf("samples: %llu timed queries (%llu in the counted blocks), "
                "%llu mutations, %llu set-ups\n",
                static_cast<unsigned long long>(r.queries),
                static_cast<unsigned long long>(quiet.samples),
                static_cast<unsigned long long>(r.mutations),
                static_cast<unsigned long long>(s.setups));
    probe_outputs(*rig, s, rep);
    rig.reset();
    for (std::uint64_t k = 1; k < s.setups; ++k) {
      rig = set_up(s, rep, &setup_s[k]);
      rig.reset();
    }
    e.setup_s = median(setup_s);
    emit(rep, e);
    return rep;
  }

  // Traced run. Pass A: execute, tracer alternating on/off.
  double setup_unused = 0;
  std::unique_ptr<Rig> rig = set_up(s, rep, &setup_unused);
  PassResult a = run_pass(*rig, s, Path::kExecute, true, nullptr, rep);
  print_fingerprint(s, a);
  rig.reset();

  // Pass B: the same seed on a fresh server through the layer calls.
  SpanLog spans(kSpanCapacity);
  rig = set_up(s, rep, &setup_unused);
  PassResult b = run_pass(*rig, s, Path::kLayers, false, &spans, rep);
  print_fingerprint(s, b);
  require_same_state(a.fingerprint, a.after, b.fingerprint, b.after);
  std::filesystem::create_directories(".perfbench_out");
  if (!spans.write(spans_path(s.name, s.seed))) {
    throw std::runtime_error("cannot write " + spans_path(s.name, s.seed));
  }
  const Counters window = delta(b.after, b.before);
  check_hit_invariants(rep, window);
  probe_outputs(*rig, s, rep);

  PerLayer p;
  fill_counter_rates(p, window, b.queries);
  p.next_ns = spans.mean_ns(Layer::kWorkloadNext);
  p.lookup_result_ns = spans.mean_ns(Layer::kCacheLookupResult);
  p.fetch_list_ns = spans.mean_ns(Layer::kCacheFetchList);
  p.insert_result_ns = spans.mean_ns(Layer::kCacheInsertResult);
  p.drain_ms = b.drain_ms;
  p.score_ns = spans.mean_ns(Layer::kEngineScore);
  p.postings_per_score = mean_of(static_cast<double>(b.postings),
                                 spans.count(Layer::kEngineScore));
  p.ns_per_posting = mean_of(
      static_cast<double>(spans.total_ns(Layer::kEngineScore)), b.postings);
  p.materialize_s = rig->materialize_s;
  p.apply_ns = spans.mean_ns(Layer::kIngestApply);
  p.merge_ms = spans.mean_ns(Layer::kIngestMerge) / 1e6;
  p.write_wall_us_p50 = percentile(b.writes.wall_us, 0.50);
  p.write_wall_us_p90 = percentile(b.writes.wall_us, 0.90);
  const double traced_ns = a.tracer.mean(true);
  p.tracer_ns = traced_ns - a.tracer.mean(false);
  p.trace_overhead_ratio =
      traced_ns > 0 ? mean(b.wall_us) * 1e3 / traced_ns : 0.0;
  for (std::size_t i = 0; i < p.situation_ns.size(); ++i) {
    p.situation_ns[i] = mean_of(a.situation_ns[i], a.situation_n[i]);
  }
  emit(rep, p);
  return rep;
}

}  // namespace perfbench
