// Equivalence suite pinning the hot DAAT path (precomputed doc-sorted
// views, reusable scratch, bounded-heap top-K) to a brute-force scored
// intersection (tests/daat_oracle.hpp): over randomized corpora and
// crafted edge cases, DaatProcessor must return the oracle's docs,
// score bits and tie-breaks, and count the same docs_scored. The
// oracle has no cursors, so each suite also pins its postings_touched
// total, recorded while a cursor-for-cursor reference processor still
// checked that count query by query.
#include <cstdint>

#include <gtest/gtest.h>

#include "src/util/rng.hpp"
#include "tests/daat_oracle.hpp"

namespace ssdse {
namespace {

/// Intersect `q` and compare with the oracle; returns postings_touched.
std::uint64_t check(DaatProcessor& proc, const DaatIndex& daat,
                    const Query& q, std::size_t top_k) {
  DaatStats stats;
  const ResultEntry got = proc.intersect(daat, q, &stats);
  expect_matches_oracle(got, stats, brute_force_daat(daat.index(), q, top_k));
  return stats.postings_touched;
}

std::uint64_t run_suite(const CorpusConfig& cfg, std::uint64_t query_seed,
                        std::size_t num_queries, std::size_t top_k) {
  Rng corpus_rng(cfg.seed);
  MaterializedCorpus corpus(cfg, corpus_rng);
  MaterializedIndex index(corpus);
  const DaatIndex daat(index);
  DaatProcessor proc(top_k);
  Rng rng(query_seed);
  std::uint64_t touched = 0;
  for (QueryId qid{}; qid < QueryId{num_queries}; ++qid) {
    const std::size_t n_terms = 1 + rng.next_below(4);
    Query q{qid, {}};
    for (std::size_t i = 0; i < n_terms; ++i) {
      q.terms.push_back(static_cast<TermId>(rng.next_below(cfg.vocab_size)));
    }
    touched += check(proc, daat, q, top_k);
  }
  return touched;
}

TEST(DaatEquivalenceTest, DenseCorpusRandomQueries) {
  CorpusConfig cfg;
  cfg.num_docs = 3'000;
  cfg.vocab_size = 120;
  cfg.terms_per_doc = 20;
  cfg.seed = 55;
  EXPECT_EQ(run_suite(cfg, /*query_seed=*/101, /*num_queries=*/200,
                      /*top_k=*/10),
            101'744u);
}

TEST(DaatEquivalenceTest, DenseCorpusUnboundedTopK) {
  CorpusConfig cfg;
  cfg.num_docs = 2'000;
  cfg.vocab_size = 80;
  cfg.terms_per_doc = 25;
  cfg.seed = 7;
  EXPECT_EQ(run_suite(cfg, 202, 100, /*top_k=*/100'000),  // keep every match
            62'983u);
}

TEST(DaatEquivalenceTest, SparseCorpusWithEmptyLists) {
  // Far more vocabulary than postings: many terms have empty lists, so
  // random queries routinely hit the empty-driver early return.
  CorpusConfig cfg;
  cfg.num_docs = 300;
  cfg.vocab_size = 5'000;
  cfg.terms_per_doc = 8;
  cfg.seed = 99;
  EXPECT_EQ(run_suite(cfg, 303, 300, 10), 44u);
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

  /// One fresh processor per query; returns postings_touched.
  std::uint64_t check_fresh(const Query& q, std::size_t top_k = 10) {
    DaatProcessor proc(top_k);
    return check(proc, daat_, q, top_k);
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

TEST_F(DaatEquivalenceEdgeTest, EmptyQuery) {
  EXPECT_EQ(check_fresh(Query{QueryId{0}, {}}), 0u);
}

TEST_F(DaatEquivalenceEdgeTest, SingleTermQueries) {
  std::uint64_t touched = 0;
  for (TermId t{}; t < TermId{50}; ++t) {
    touched += check_fresh(Query{QueryId{t.raw()}, {t}});
    touched += check_fresh(Query{QueryId{1'000 + t.raw()}, {t}},
                           /*top_k=*/100'000);
  }
  EXPECT_EQ(touched, 82'840u);
}

TEST_F(DaatEquivalenceEdgeTest, DuplicatedTermQuery) {
  std::uint64_t touched =
      check_fresh(Query{QueryId{1}, {TermId{3}, TermId{3}}});
  touched +=
      check_fresh(Query{QueryId{2}, {TermId{7}, TermId{7}, TermId{7}}});
  EXPECT_EQ(touched, 8'539u);
}

TEST_F(DaatEquivalenceEdgeTest, ExhaustedNonDriverList) {
  // Find a pair where the shorter (driver) list extends past the end of
  // the longer one: mid-intersection the non-driver list runs out, the
  // early-exit path the stats accounting is most sensitive to.
  bool found = false;
  std::uint64_t touched = 0;
  for (TermId a{}; a < TermId{index_.vocab_size()} && !found; ++a) {
    const auto sa = index_.postings(a)->size();
    if (sa == 0) continue;
    for (TermId b{}; b < TermId{index_.vocab_size()} && !found; ++b) {
      const auto sb = index_.postings(b)->size();
      if (a == b || sb <= sa) continue;  // a must drive (strictly shorter)
      if (max_doc(b) < max_doc(a)) {
        touched += check_fresh(Query{QueryId{42}, {a, b}});
        // Term order must not matter.
        touched += check_fresh(Query{QueryId{43}, {b, a}});
        found = true;
      }
    }
  }
  ASSERT_TRUE(found) << "corpus yielded no exhausted-driver pair";
  EXPECT_EQ(touched, 8'360u);
}

TEST_F(DaatEquivalenceEdgeTest, ScratchReuseAcrossMixedQueries) {
  // One processor instance across queries of varying width: stale
  // scratch (views/cursors/order/heap) from a wide query must not leak
  // into a narrow one.
  DaatProcessor proc(10);
  Rng rng(404);
  std::uint64_t touched = 0;
  for (QueryId qid{}; qid < QueryId{100}; ++qid) {
    const std::size_t n_terms = 1 + rng.next_below(5);
    Query q{qid, {}};
    for (std::size_t i = 0; i < n_terms; ++i) {
      q.terms.push_back(
          static_cast<TermId>(rng.next_below(index_.vocab_size())));
    }
    touched += check(proc, daat_, q, 10);
  }
  EXPECT_EQ(touched, 16'547u);
}

}  // namespace
}  // namespace ssdse
