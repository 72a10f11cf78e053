// Live-index subsystem (src/ingest, DESIGN.md §12) tests.
//
// The acceptance bar: at every point of a churn episode — mid-segment,
// post-merge, with tombstones outstanding — query results through the
// overlay are bit-identical to a rebuild-from-scratch oracle index built
// from the equivalent document set (deleted docs as empty bags, ingested
// docs appended at their assigned ids). Plus the two-level cache
// coherence discipline: ingest/delete invalidates affected cached
// entries, merge invalidates nothing.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/daat.hpp"
#include "src/engine/scorer.hpp"
#include "src/hybrid/run_report.hpp"
#include "src/hybrid/search_system.hpp"
#include "src/ingest/live_index.hpp"
#include "src/ingest/live_segment.hpp"
#include "src/util/rng.hpp"

namespace ssdse {
namespace {

CorpusConfig small_corpus() {
  CorpusConfig cc;
  cc.num_docs = 1'500;
  cc.vocab_size = 400;
  cc.terms_per_doc = 15;
  cc.seed = 7;
  return cc;
}

/// Mirror of the document set a churn episode produces, maintained by
/// the test alongside the LiveIndex so the oracle can be rebuilt from
/// first principles at any point.
struct DocMirror {
  std::vector<ingest::DocBag> docs;

  explicit DocMirror(const MaterializedCorpus& base) {
    docs.reserve(base.num_docs());
    for (DocId d{}; d.raw() < base.num_docs(); ++d) docs.push_back(base.doc(d));
  }
  void ingest(const ingest::DocBag& bag) { docs.push_back(bag); }
  void erase(DocId d) { docs[d.raw()].clear(); }  // slot stays — empty bag
};

/// Rebuild-from-scratch oracle: a fresh corpus + index (and the DAAT
/// engine's view of it) over the mirrored documents.
struct Oracle {
  MaterializedCorpus corpus;
  MaterializedIndex index;
  DaatIndex daat;
  Oracle(const CorpusConfig& cfg, const DocMirror& mirror)
      : corpus(cfg, mirror.docs), index(corpus), daat(index) {}
};

ingest::DocBag make_bag(Rng& rng, std::uint32_t vocab, std::size_t terms) {
  ingest::DocBag bag;
  while (bag.size() < terms) {
    const auto t = static_cast<TermId>(rng.next_below(vocab));
    bool dup = false;
    for (const auto& [bt, tf] : bag) dup |= bt == t;
    if (!dup) bag.emplace_back(t, 1 + static_cast<std::uint32_t>(
                                        rng.next_below(5)));
  }
  std::sort(bag.begin(), bag.end());
  return bag;
}

std::vector<Query> random_queries(Rng& rng, std::uint32_t vocab,
                                  std::size_t n) {
  std::vector<Query> queries;
  for (QueryId qid{}; qid < QueryId{n}; ++qid) {
    Query q{qid, {}};
    const std::size_t terms = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < terms; ++i) {
      q.terms.push_back(static_cast<TermId>(rng.next_below(vocab)));
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

void expect_docs_eq(const ResultEntry& got, const ResultEntry& want,
                    const char* ctx, QueryId qid) {
  ASSERT_EQ(got.docs.size(), want.docs.size()) << ctx << " query " << qid.raw();
  for (std::size_t i = 0; i < got.docs.size(); ++i) {
    EXPECT_EQ(got.docs[i].doc, want.docs[i].doc)
        << ctx << " query " << qid.raw() << " rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.docs[i].score),
              std::bit_cast<std::uint32_t>(want.docs[i].score))
        << ctx << " query " << qid.raw() << " rank " << i;
  }
}

/// DaatProcessor against the overlayed index must match the oracle
/// bit-for-bit, stats included: churn scratch and arena slices advance
/// by the same search, so even postings_touched agrees.
void expect_oracle_equivalent(const DaatIndex& live_daat,
                              const Oracle& oracle,
                              const std::vector<Query>& queries,
                              const char* ctx) {
  DaatProcessor fast(10), oracle_fast(10);
  for (const Query& q : queries) {
    DaatStats fs, os;
    const ResultEntry fr = fast.intersect(live_daat, q, &fs);
    const ResultEntry orf = oracle_fast.intersect(oracle.daat, q, &os);
    expect_docs_eq(fr, orf, ctx, q.id);
    EXPECT_EQ(fs.docs_scored, os.docs_scored) << ctx << " query " << q.id.raw();
    EXPECT_EQ(fs.postings_touched, os.postings_touched)
        << ctx << " query " << q.id.raw();
  }
}

/// What the scorer reads and a merge installs: every term's current
/// frequency-ordered postings equal the oracle's stored list, element
/// for element.
void expect_postings_equal(const MaterializedIndex& live_index,
                           const Oracle& oracle, const char* ctx) {
  std::vector<Posting> scratch;
  for (TermId t{}; t < TermId{live_index.vocab_size()}; ++t) {
    const std::span<const Posting> got =
        live_index.current_postings(t, scratch);
    const std::span<const Posting> want = oracle.index.postings(t)->postings();
    ASSERT_TRUE(std::ranges::equal(got, want)) << ctx << " term " << t.raw();
  }
}

/// The scorer's view of a churned index: for every dirty term, the lazy
/// merge yields the eager merge element for element (so every prefix
/// the scorer may stop at agrees), and for every term the df taken from
/// the overlay's counters equals the length of a full scan.
void expect_lazy_view_equal(const MaterializedIndex& index,
                            const char* ctx) {
  const LiveOverlay* overlay = index.overlay();
  ASSERT_NE(overlay, nullptr);
  std::vector<Posting> eager_scratch, live_scratch;
  std::size_t dirty = 0;
  for (TermId t{}; t < TermId{index.vocab_size()}; ++t) {
    const std::span<const Posting> eager =
        index.current_postings(t, eager_scratch);
    ASSERT_EQ(index.current_df(t), eager.size()) << ctx << " term " << t.raw();
    if (!overlay->term_dirty(t)) continue;
    ++dirty;
    MergedPostings lazy = index.merged_postings(t, live_scratch);
    std::size_t i = 0;
    for (const Posting* p = lazy.next(); p != nullptr; p = lazy.next(), ++i) {
      ASSERT_LT(i, eager.size()) << ctx << " term " << t.raw();
      ASSERT_EQ(*p, eager[i]) << ctx << " term " << t.raw() << " rank " << i;
    }
    EXPECT_EQ(i, eager.size()) << ctx << " term " << t.raw();
  }
  EXPECT_GT(dirty, 0u) << ctx;
}

// --- LiveSegment --------------------------------------------------------

TEST(LiveSegmentTest, AppendAndCollectPreservesOrder) {
  ingest::LiveSegment seg(10, 2);  // tiny blocks force chaining
  seg.append(TermId{3}, {DocId{100}, 2});
  seg.append(TermId{3}, {DocId{101}, 1});
  seg.append(TermId{3}, {DocId{105}, 4});
  seg.append(TermId{7}, {DocId{100}, 9});
  EXPECT_EQ(seg.count(TermId{3}), 3u);
  EXPECT_EQ(seg.count(TermId{7}), 1u);
  EXPECT_EQ(seg.count(TermId{0}), 0u);
  EXPECT_EQ(seg.total_postings(), 4u);
  std::vector<Posting> out;
  seg.collect(TermId{3}, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].doc.raw(), 100u);
  EXPECT_EQ(out[1].doc, DocId{101});
  EXPECT_EQ(out[2].doc, DocId{105});
  EXPECT_EQ(out[2].tf, 4u);
}

TEST(LiveSegmentTest, ClearKeepsArenaCapacity) {
  ingest::LiveSegment seg(4, 4);
  for (int i = 0; i < 100; ++i) {
    seg.append(static_cast<TermId>(i % 4),
               {static_cast<DocId>(i), 1});
  }
  const Bytes bytes_before = seg.arena_bytes();
  EXPECT_GT(bytes_before, 0u);
  seg.clear();
  EXPECT_EQ(seg.total_postings(), 0u);
  EXPECT_EQ(seg.count(TermId{0}), 0u);
  EXPECT_EQ(seg.arena_bytes(), bytes_before);  // capacity retained
}

// --- LiveIndex ----------------------------------------------------------

TEST(LiveIndexTest, MonotoneDocIdsAndSlotAccounting) {
  const CorpusConfig cc = small_corpus();
  Rng rng(cc.seed);
  MaterializedCorpus corpus(cc, rng);
  MaterializedIndex index(corpus);
  ingest::LiveIndex live(index, corpus, IngestConfig{});
  index.attach_overlay(&live);

  const std::uint64_t base = corpus.num_docs();
  EXPECT_TRUE(live.clean());
  EXPECT_EQ(index.num_docs(), base);

  Rng bag_rng(11);
  const DocId d0 = live.ingest(make_bag(bag_rng, cc.vocab_size, 5));
  const DocId d1 = live.ingest(make_bag(bag_rng, cc.vocab_size, 5));
  EXPECT_EQ(d0.raw(), base);
  EXPECT_EQ(d1.raw(), base + 1);
  EXPECT_EQ(index.num_docs(), base + 2);
  EXPECT_FALSE(live.clean());
  EXPECT_EQ(live.live_doc_slots(), 2u);
  index.attach_overlay(nullptr);
}

TEST(LiveIndexTest, DeleteSemantics) {
  const CorpusConfig cc = small_corpus();
  Rng rng(cc.seed);
  MaterializedCorpus corpus(cc, rng);
  MaterializedIndex index(corpus);
  ingest::LiveIndex live(index, corpus, IngestConfig{});
  index.attach_overlay(&live);

  std::vector<TermId> terms;
  ASSERT_TRUE(live.erase(DocId{5}, &terms));
  EXPECT_EQ(terms.size(), corpus.doc(DocId{5}).size());
  EXPECT_TRUE(live.is_deleted(DocId{5}));
  EXPECT_FALSE(live.erase(DocId{5}, nullptr));  // already deleted
  EXPECT_FALSE(live.erase(static_cast<DocId>(index.num_docs()), nullptr));
  // Deleting keeps the slot: N is unchanged.
  EXPECT_EQ(index.num_docs(), corpus.num_docs());
  EXPECT_EQ(live.deleted_docs(), 1u);
  // A live doc can be deleted too.
  Rng bag_rng(12);
  const DocId d = live.ingest(make_bag(bag_rng, cc.vocab_size, 4));
  ASSERT_TRUE(live.erase(d, nullptr));
  EXPECT_TRUE(live.is_deleted(d));
  index.attach_overlay(nullptr);
}

TEST(LiveIndexTest, MergeTriggers) {
  const CorpusConfig cc = small_corpus();
  Rng rng(cc.seed);
  MaterializedCorpus corpus(cc, rng);
  MaterializedIndex index(corpus);
  IngestConfig ic;
  ic.merge_segment_postings = 10;
  ingest::LiveIndex by_postings(index, corpus, ic);
  Rng bag_rng(13);
  EXPECT_FALSE(by_postings.should_merge());
  (void)by_postings.ingest(make_bag(bag_rng, cc.vocab_size, 12));
  EXPECT_TRUE(by_postings.should_merge());

  IngestConfig ic2;
  ic2.merge_segment_postings = 0;
  ic2.merge_segment_ops = 2;
  ingest::LiveIndex by_ops(index, corpus, ic2);
  std::vector<TermId> terms;
  ASSERT_TRUE(by_ops.erase(DocId{1}, &terms));
  EXPECT_FALSE(by_ops.should_merge());
  ASSERT_TRUE(by_ops.erase(DocId{2}, &terms));
  EXPECT_TRUE(by_ops.should_merge());  // deletes alone age the segment
}

// --- Oracle equivalence -------------------------------------------------

TEST(LiveIndexOracleTest, ChurnMatchesRebuildFromScratch) {
  // Block-packed sizes a merged list by its doc-ordered blocks, so it
  // gets its own pass through the metadata reconvergence check.
  for (const char* codec : {"raw", "block-packed"}) {
    SCOPED_TRACE(codec);
    CorpusConfig cc = small_corpus();
    cc.codec = codec;
    Rng rng(cc.seed);
    MaterializedCorpus corpus(cc, rng);
    MaterializedIndex index(corpus);
    ingest::LiveIndex live(index, corpus, IngestConfig{});
    index.attach_overlay(&live);
    DocMirror mirror(corpus);

    Rng churn_rng(31);
    // Interleaved adds and deletes (of base and of live docs).
    for (int i = 0; i < 40; ++i) {
      const ingest::DocBag bag = make_bag(churn_rng, cc.vocab_size, 8);
      const DocId id = live.ingest(bag);
      ASSERT_EQ(id.raw(), mirror.docs.size());
      mirror.ingest(bag);
      if (i % 4 == 3) {
        const auto victim =
            static_cast<DocId>(churn_rng.next_below(index.num_docs()));
        if (live.erase(victim, nullptr)) mirror.erase(victim);
      }
    }
    ASSERT_FALSE(live.clean());

    Rng query_rng(32);
    const std::vector<Query> queries =
        random_queries(query_rng, cc.vocab_size, 120);
    const Oracle mid(cc, mirror);
    ASSERT_EQ(index.num_docs(), mid.index.num_docs());
    expect_postings_equal(index, mid, "mid-segment");
    expect_lazy_view_equal(index, "mid-segment");
    const DaatIndex before_merge(index);
    expect_oracle_equivalent(before_merge, mid, queries, "mid-segment");

    // Merge is content-neutral: same results, now from the merged lists
    // and a DaatIndex rebuilt over them — full stats equality included.
    const ingest::MergeOutcome outcome = live.merge();
    EXPECT_GT(outcome.terms_rebuilt, 0u);
    EXPECT_TRUE(live.clean());
    // The merge rewrote the lists: the DaatIndex built before it is
    // stale, and the processor refuses to answer from it.
    DaatProcessor stale_reader(10);
    EXPECT_THROW(stale_reader.intersect(before_merge, queries.front()),
                 std::logic_error);
    EXPECT_EQ(index.num_docs(), mid.index.num_docs());
    expect_postings_equal(index, mid, "post-merge");
    expect_oracle_equivalent(DaatIndex(index), mid, queries, "post-merge");

    // Term metadata reconverges too (df, bytes, scoring idf).
    for (TermId t{}; t < TermId{cc.vocab_size}; ++t) {
      const TermMeta got = index.term_meta(t);
      const TermMeta want = mid.index.term_meta(t);
      EXPECT_EQ(got.df, want.df) << "term " << t.raw();
      EXPECT_EQ(got.list_bytes, want.list_bytes) << "term " << t.raw();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.idf),
                std::bit_cast<std::uint64_t>(want.idf))
          << "term " << t.raw();
    }
    index.attach_overlay(nullptr);
  }
}

TEST(LiveIndexOracleTest, RepeatedMergeCyclesStayExact) {
  const CorpusConfig cc = small_corpus();
  Rng rng(cc.seed);
  MaterializedCorpus corpus(cc, rng);
  MaterializedIndex index(corpus);
  ingest::LiveIndex live(index, corpus, IngestConfig{});
  index.attach_overlay(&live);
  DocMirror mirror(corpus);

  Rng churn_rng(41), query_rng(42);
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 15; ++i) {
      const ingest::DocBag bag = make_bag(churn_rng, cc.vocab_size, 6);
      (void)live.ingest(bag);
      mirror.ingest(bag);
    }
    const auto victim =
        static_cast<DocId>(churn_rng.next_below(index.num_docs()));
    if (live.erase(victim, nullptr)) mirror.erase(victim);
    const Oracle oracle(cc, mirror);
    expect_postings_equal(index, oracle, "mid-segment");
    expect_lazy_view_equal(index, "mid-segment");
    (void)live.merge();
    expect_postings_equal(index, oracle, "post-merge");
    const std::vector<Query> queries =
        random_queries(query_rng, cc.vocab_size, 60);
    expect_oracle_equivalent(DaatIndex(index), oracle, queries, "cycle");
  }
  index.attach_overlay(nullptr);
}

TEST(LiveIndexOracleTest, ScorerFollowsAGrowingIndex) {
  // One Scorer across the whole episode: its accumulator is sized by
  // the first query, then the live index adds more doc slots than that
  // (new docs that rank first for the queried terms) and deletes some.
  // Every result still equals a fresh scorer's over a rebuilt index.
  const CorpusConfig cc = small_corpus();
  Rng rng(cc.seed);
  MaterializedCorpus corpus(cc, rng);
  MaterializedIndex index(corpus);
  ingest::LiveIndex live(index, corpus, IngestConfig{});
  index.attach_overlay(&live);
  DocMirror mirror(corpus);
  const Scorer scorer;

  Rng churn_rng(61), query_rng(62);
  const std::vector<Query> queries =
      random_queries(query_rng, cc.vocab_size, 80);
  const auto check = [&](const char* ctx) {
    Oracle oracle(cc, mirror);
    const Scorer fresh;
    for (const Query& q : queries) {
      const ScoreOutcome got = scorer.score(index, q);
      const ScoreOutcome want = fresh.score(oracle.index, q);
      expect_docs_eq(got.result, want.result, ctx, q.id);
      EXPECT_EQ(got.total_postings, want.total_postings)
          << ctx << " query " << q.id.raw();
    }
  };
  check("base");
  for (int i = 0; i < 2 * static_cast<int>(cc.num_docs); ++i) {
    ingest::DocBag bag = make_bag(churn_rng, cc.vocab_size, 4);
    for (auto& [t, tf] : bag) tf += 40;  // outranks every base posting
    bag.emplace_back(queries[static_cast<std::size_t>(i) % queries.size()]
                         .terms.front(),
                     50);
    std::sort(bag.begin(), bag.end());
    bag.erase(std::unique(bag.begin(), bag.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              bag.end());
    (void)live.ingest(bag);
    mirror.ingest(bag);
    if (i % 7 == 3) {
      const auto victim =
          static_cast<DocId>(churn_rng.next_below(index.num_docs()));
      if (live.erase(victim, nullptr)) mirror.erase(victim);
    }
  }
  ASSERT_GT(index.num_docs(), 2 * cc.num_docs);
  check("grown");
  (void)live.merge();
  check("merged");
  index.attach_overlay(nullptr);
}

// --- System level: API, coherence, zero-churn transparency --------------

SystemConfig ingest_system(const CorpusConfig& cc) {
  SystemConfig cfg;
  cfg.corpus = cc;
  cfg.log.vocab_size = cc.vocab_size;
  cfg.log.distinct_queries = 2'000;
  cfg.set_memory_budget(2 * MiB);
  cfg.cache.ssd_result_capacity = 4 * MiB;
  cfg.cache.ssd_list_capacity = 16 * MiB;
  cfg.training_queries = 500;
  cfg.ingest.enabled = true;
  return cfg;
}

TEST(IngestSystemTest, DisabledConfigRejectsApiAndStaysTransparent) {
  const CorpusConfig cc = small_corpus();
  Rng rng(cc.seed);
  MaterializedCorpus corpus(cc, rng);

  SystemConfig off = ingest_system(cc);
  off.ingest.enabled = false;
  MaterializedIndex plain_index(corpus);
  SearchSystem plain(off, plain_index);
  EXPECT_THROW((void)plain.delete_document(DocId{0}), std::logic_error);
  EXPECT_THROW((void)plain.ingest_document({{TermId{0}, 1}}), std::logic_error);

  // Enabled-but-idle: every query outcome bit-identical to a build
  // without the subsystem (zero-churn indistinguishability).
  MaterializedIndex live_index(corpus);
  SearchSystem idle(ingest_system(cc), live_index, corpus);
  for (std::uint64_t i = 0; i < 300; ++i) {
    const Query q = plain.generator().next();
    const Query q2 = idle.generator().next();
    ASSERT_EQ(q.id, q2.id);
    const auto a = plain.execute(q);
    const auto b = idle.execute(q2);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.response),
              std::bit_cast<std::uint64_t>(b.response))
        << "query " << q.id.raw();
    EXPECT_EQ(a.situation, b.situation);
    expect_docs_eq(b.result, a.result, "idle", q.id);
  }
  EXPECT_EQ(idle.cache_manager().stats().stale_result_invalidations, 0u);
  EXPECT_EQ(idle.cache_manager().stats().stale_list_invalidations, 0u);
}

TEST(IngestSystemTest, IngestRequiresMaterializedCtor) {
  SystemConfig cfg;
  cfg.set_num_docs(200'000);
  cfg.set_memory_budget(4 * MiB);
  cfg.training_queries = 500;
  cfg.ingest.enabled = true;
  EXPECT_THROW(SearchSystem sys(cfg), std::invalid_argument);
}

TEST(IngestSystemTest, MutationInvalidatesCachedResultsAndLists) {
  const CorpusConfig cc = small_corpus();
  Rng rng(cc.seed);
  MaterializedCorpus corpus(cc, rng);
  MaterializedIndex index(corpus);
  SystemConfig cfg = ingest_system(cc);
  SearchSystem sys(cfg, index, corpus);

  const Query q = sys.generator().query_for_rank(0);
  const auto first = sys.execute(q);
  ASSERT_FALSE(first.result_from_cache);
  ASSERT_TRUE(sys.execute(q).result_from_cache);

  // Ingest a document containing the query's first term: the cached
  // result (and any cached list) must be invalidated, and re-execution
  // recomputes against the mutated index.
  const DocId d = sys.ingest_document({{q.terms[0], 3}});
  EXPECT_EQ(d.raw(), index.num_docs() - 1);
  const auto after = sys.execute(q);
  EXPECT_FALSE(after.result_from_cache);
  EXPECT_GT(sys.cache_manager().stats().stale_result_invalidations, 0u);
  // The new doc scores for the term, so it must appear in the fresh
  // result (tf 3 in a tiny doc ranks high).
  bool found = false;
  for (const ScoredDoc& sd : after.result.docs) found |= sd.doc == d;
  EXPECT_TRUE(found);

  // Deleting it invalidates again and removes it from results.
  ASSERT_TRUE(sys.delete_document(d));
  const auto gone = sys.execute(q);
  EXPECT_FALSE(gone.result_from_cache);
  for (const ScoredDoc& sd : gone.result.docs) EXPECT_NE(sd.doc, d);
  EXPECT_FALSE(sys.delete_document(d));  // second delete misses
  EXPECT_EQ(sys.ingest_stats().delete_misses, 1u);
}

TEST(IngestSystemTest, ChurnedSystemMatchesOracleSystem) {
  const CorpusConfig cc = small_corpus();
  Rng rng(cc.seed);
  MaterializedCorpus corpus(cc, rng);
  MaterializedIndex index(corpus);
  SystemConfig cfg = ingest_system(cc);
  cfg.ingest.merge_segment_postings = 64;  // several merges mid-run
  SearchSystem sys(cfg, index, corpus);
  DocMirror mirror(corpus);

  Rng churn_rng(51);
  for (int i = 0; i < 60; ++i) {
    (void)sys.execute(sys.generator().next());
    if (i % 2 == 0) {
      const ingest::DocBag bag = make_bag(churn_rng, cc.vocab_size, 10);
      const DocId id = sys.ingest_document(bag);
      ASSERT_EQ(id.raw(), mirror.docs.size());
      mirror.ingest(bag);
    }
    if (i % 8 == 5) {
      const auto victim =
          static_cast<DocId>(churn_rng.next_below(index.num_docs()));
      if (sys.delete_document(victim)) mirror.erase(victim);
    }
  }
  EXPECT_GT(sys.ingest_stats().docs, 0u);
  EXPECT_GT(sys.ingest_stats().merges, 0u);

  // Every query against the churned system matches a cache-less oracle
  // system over the rebuilt corpus.
  Oracle oracle(cc, mirror);
  SystemConfig ocfg = ingest_system(cc);
  ocfg.ingest.enabled = false;
  ocfg.use_cache = false;
  SearchSystem truth(ocfg, oracle.index);
  for (std::uint64_t r = 0; r < 40; ++r) {
    const Query q = sys.generator().query_for_rank(r);
    const auto got = sys.execute(q);
    const auto want = truth.execute(truth.generator().query_for_rank(r));
    expect_docs_eq(got.result, want.result, "system-oracle", q.id);
  }
}

TEST(IngestSystemTest, RunReportCarriesIngestMetrics) {
  const CorpusConfig cc = small_corpus();
  Rng rng(cc.seed);
  MaterializedCorpus corpus(cc, rng);
  MaterializedIndex index(corpus);
  SystemConfig cfg = ingest_system(cc);
  SearchSystem sys(cfg, index, corpus);
  (void)sys.ingest_document({{TermId{1}, 2}, {TermId{3}, 1}});
  (void)sys.execute(sys.generator().next());
  const auto snap = sys.telemetry_registry().snapshot();
  const std::string json = render_run_report("ingest_unit", snap);
  EXPECT_NE(json.find(R"("ingest.docs":1)"), std::string::npos);
  EXPECT_NE(json.find(R"("ingest.segment.postings":{)"), std::string::npos);
  EXPECT_NE(json.find(R"("cache.stale.result_invalidations")"),
            std::string::npos);
  // A MaterializedIndex served the queries.
  ASSERT_NE(snap.find("index.materialized"), nullptr);
  EXPECT_EQ(snap.find("index.materialized")->gauge.mean(), 1.0);

  // No ingest.* metrics when the subsystem is off.
  MaterializedIndex plain_index(corpus);
  SystemConfig off = ingest_system(cc);
  off.ingest.enabled = false;
  SearchSystem plain(off, plain_index);
  const std::string plain_json =
      render_run_report("plain_unit", plain.telemetry_registry().snapshot());
  EXPECT_EQ(plain_json.find(R"("ingest.)"), std::string::npos);
}

}  // namespace
}  // namespace ssdse
