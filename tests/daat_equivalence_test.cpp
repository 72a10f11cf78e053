// Equivalence suite pinning the hot DAAT path (precomputed doc-sorted
// views, reusable scratch, bounded-heap top-K) to the seed reference
// implementation (NaiveDaatProcessor): over randomized corpora and
// crafted edge cases, both processors must produce bit-identical
// results — same docs, same score bits, same tie-breaks, same
// DaatStats counters.
#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "src/engine/daat.hpp"
#include "src/util/rng.hpp"

namespace ssdse {
namespace {

void expect_identical(const ResultEntry& fast, const ResultEntry& ref,
                      const DaatStats& fast_stats,
                      const DaatStats& ref_stats, const Query& q) {
  ASSERT_EQ(fast.query, ref.query);
  ASSERT_EQ(fast.docs.size(), ref.docs.size()) << "query " << q.id.raw();
  for (std::size_t i = 0; i < fast.docs.size(); ++i) {
    EXPECT_EQ(fast.docs[i].doc, ref.docs[i].doc)
        << "query " << q.id.raw() << " rank " << i;
    // Bit-exact scores: identical summation order and idf expressions,
    // not merely approximate equality.
    EXPECT_EQ(std::bit_cast<std::uint32_t>(fast.docs[i].score),
              std::bit_cast<std::uint32_t>(ref.docs[i].score))
        << "query " << q.id.raw() << " rank " << i;
  }
  EXPECT_EQ(fast_stats.docs_scored, ref_stats.docs_scored);
  EXPECT_EQ(fast_stats.postings_touched, ref_stats.postings_touched);
}

void run_suite(const CorpusConfig& cfg, std::uint64_t query_seed,
               std::size_t num_queries, std::size_t top_k) {
  Rng corpus_rng(cfg.seed);
  MaterializedCorpus corpus(cfg, corpus_rng);
  MaterializedIndex index(corpus);
  const DaatIndex daat(index);
  DaatProcessor fast(top_k);
  NaiveDaatProcessor ref(top_k);
  Rng rng(query_seed);
  for (QueryId qid{}; qid < QueryId{num_queries}; ++qid) {
    const std::size_t n_terms = 1 + rng.next_below(4);
    Query q{qid, {}};
    for (std::size_t i = 0; i < n_terms; ++i) {
      q.terms.push_back(static_cast<TermId>(rng.next_below(cfg.vocab_size)));
    }
    DaatStats fs, rs;
    const ResultEntry fr = fast.intersect(daat, q, &fs);
    const ResultEntry rr = ref.intersect(daat, q, &rs);
    expect_identical(fr, rr, fs, rs, q);
  }
}

TEST(DaatEquivalenceTest, DenseCorpusRandomQueries) {
  CorpusConfig cfg;
  cfg.num_docs = 3'000;
  cfg.vocab_size = 120;
  cfg.terms_per_doc = 20;
  cfg.seed = 55;
  run_suite(cfg, /*query_seed=*/101, /*num_queries=*/200, /*top_k=*/10);
}

TEST(DaatEquivalenceTest, DenseCorpusUnboundedTopK) {
  CorpusConfig cfg;
  cfg.num_docs = 2'000;
  cfg.vocab_size = 80;
  cfg.terms_per_doc = 25;
  cfg.seed = 7;
  run_suite(cfg, 202, 100, /*top_k=*/100'000);  // keep every match
}

TEST(DaatEquivalenceTest, SparseCorpusWithEmptyLists) {
  // Far more vocabulary than postings: many terms have empty lists, so
  // random queries routinely hit the empty-driver early return.
  CorpusConfig cfg;
  cfg.num_docs = 300;
  cfg.vocab_size = 5'000;
  cfg.terms_per_doc = 8;
  cfg.seed = 99;
  run_suite(cfg, 303, 300, 10);
}

class DaatEquivalenceEdgeTest : public ::testing::Test {
 protected:
  static CorpusConfig edge_corpus() {
    CorpusConfig cfg;
    cfg.num_docs = 3'000;
    cfg.vocab_size = 200;
    cfg.terms_per_doc = 15;
    cfg.seed = 13;
    return cfg;
  }

  DaatEquivalenceEdgeTest()
      : rng_(edge_corpus().seed),
        corpus_(edge_corpus(), rng_),
        index_(corpus_),
        daat_(index_) {}

  void check(const Query& q, std::size_t top_k = 10) {
    DaatProcessor fast(top_k);
    NaiveDaatProcessor ref(top_k);
    DaatStats fs, rs;
    const ResultEntry fr = fast.intersect(daat_, q, &fs);
    const ResultEntry rr = ref.intersect(daat_, q, &rs);
    expect_identical(fr, rr, fs, rs, q);
  }

  DocId max_doc(TermId t) const {
    DocId m{};
    for (const Posting& p : index_.postings(t)->postings()) {
      m = std::max(m, p.doc);
    }
    return m;
  }

  Rng rng_;
  MaterializedCorpus corpus_;
  MaterializedIndex index_;
  DaatIndex daat_;
};

TEST_F(DaatEquivalenceEdgeTest, EmptyQuery) { check(Query{QueryId{0}, {}}); }

TEST_F(DaatEquivalenceEdgeTest, SingleTermQueries) {
  for (TermId t{}; t < TermId{50}; ++t) {
    check(Query{QueryId{t.raw()}, {t}});
    check(Query{QueryId{1'000 + t.raw()}, {t}}, /*top_k=*/100'000);
  }
}

TEST_F(DaatEquivalenceEdgeTest, DuplicatedTermQuery) {
  check(Query{QueryId{1}, {TermId{3}, TermId{3}}});
  check(Query{QueryId{2}, {TermId{7}, TermId{7}, TermId{7}}});
}

TEST_F(DaatEquivalenceEdgeTest, ExhaustedNonDriverList) {
  // Find a pair where the shorter (driver) list extends past the end of
  // the longer one: mid-intersection the non-driver list runs out, the
  // early-exit path the stats accounting is most sensitive to.
  bool found = false;
  for (TermId a{}; a < TermId{index_.vocab_size()} && !found; ++a) {
    const auto sa = index_.postings(a)->size();
    if (sa == 0) continue;
    for (TermId b{}; b < TermId{index_.vocab_size()} && !found; ++b) {
      const auto sb = index_.postings(b)->size();
      if (a == b || sb <= sa) continue;  // a must drive (strictly shorter)
      if (max_doc(b) < max_doc(a)) {
        check(Query{QueryId{42}, {a, b}});
        check(Query{QueryId{43}, {b, a}});  // term order must not matter
        found = true;
      }
    }
  }
  ASSERT_TRUE(found) << "corpus yielded no exhausted-driver pair";
}

TEST_F(DaatEquivalenceEdgeTest, ScratchReuseAcrossMixedQueries) {
  // One processor instance across queries of varying width: stale
  // scratch (views/cursors/order/heap) from a wide query must not leak
  // into a narrow one.
  DaatProcessor fast(10);
  NaiveDaatProcessor ref(10);
  Rng rng(404);
  for (QueryId qid{}; qid < QueryId{100}; ++qid) {
    const std::size_t n_terms = 1 + rng.next_below(5);
    Query q{qid, {}};
    for (std::size_t i = 0; i < n_terms; ++i) {
      q.terms.push_back(
          static_cast<TermId>(rng.next_below(index_.vocab_size())));
    }
    DaatStats fs, rs;
    const ResultEntry fr = fast.intersect(daat_, q, &fs);
    const ResultEntry rr = ref.intersect(daat_, q, &rs);
    expect_identical(fr, rr, fs, rs, q);
  }
}

}  // namespace
}  // namespace ssdse
