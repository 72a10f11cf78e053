// DAAT conjunctive processing tests: the galloping next-doc search,
// advance() semantics, and intersection correctness against a
// brute-force scored oracle (tests/daat_oracle.hpp).
#include <algorithm>
#include <span>

#include <gtest/gtest.h>

#include "src/index/gallop.hpp"
#include "src/util/rng.hpp"
#include "tests/daat_oracle.hpp"

namespace ssdse {
namespace {

/// Doc-ascending postings over `docs` (already ascending).
std::vector<Posting> by_doc(const std::vector<DocId>& docs) {
  std::vector<Posting> p;
  p.reserve(docs.size());
  for (DocId d : docs) p.push_back(Posting{d, 5});
  return p;
}

std::size_t gallop_docs(const std::vector<Posting>& a, std::size_t from,
                        DocId target) {
  return gallop(std::span<const Posting>(a), from, target, &Posting::doc);
}

// --- gallop --------------------------------------------------------------

TEST(GallopTest, MatchesLowerBoundFromTheCursor) {
  // Sizes 2^k - 1, 2^k and 2^k + 1 make the doubling stride overshoot
  // the array end by different amounts, so the last stride is clamped.
  std::vector<std::size_t> sizes = {0, 1, 2, 3};
  for (std::size_t k = 2; k <= 10; ++k) {
    sizes.push_back((std::size_t{1} << k) - 1);
    sizes.push_back(std::size_t{1} << k);
    sizes.push_back((std::size_t{1} << k) + 1);
  }
  Rng rng(2024);
  for (const std::size_t n : sizes) {
    for (int rep = 0; rep < 10; ++rep) {
      std::vector<Posting> a(n);
      DocId d{};
      for (Posting& p : a) {
        d = d + static_cast<std::uint32_t>(1 + rng.next_below(4));
        p.doc = d;
      }
      // Targets reach past the last element; cursors include size().
      const std::uint64_t doc_range = d.raw() + 4;
      for (int probe = 0; probe < 64; ++probe) {
        const std::size_t from = rng.next_below(n + 1);
        const auto target = static_cast<DocId>(rng.next_below(doc_range));
        const auto want = static_cast<std::size_t>(
            std::lower_bound(
                a.begin() + static_cast<std::ptrdiff_t>(from), a.end(),
                target,
                [](const Posting& p, DocId t) { return p.doc < t; }) -
            a.begin());
        ASSERT_EQ(gallop_docs(a, from, target), want)
            << "size " << n << " from " << from << " target "
            << target.raw();
      }
    }
  }
}

TEST(GallopTest, EdgeCases) {
  EXPECT_EQ(gallop_docs({}, 0, DocId{5}), 0u);  // empty
  const std::vector<Posting> one = by_doc({DocId{7}});
  EXPECT_EQ(gallop_docs(one, 0, DocId{3}), 0u);  // already past target
  EXPECT_EQ(gallop_docs(one, 0, DocId{7}), 0u);  // exact
  EXPECT_EQ(gallop_docs(one, 0, DocId{8}), 1u);  // past the last element
  EXPECT_EQ(gallop_docs(one, 1, DocId{0}), 1u);  // from == size
  const std::vector<Posting> five =
      by_doc({DocId{10}, DocId{20}, DocId{30}, DocId{40}, DocId{50}});
  EXPECT_EQ(gallop_docs(five, 3, DocId{15}), 3u);  // never moves back
  EXPECT_EQ(gallop_docs(five, 3, DocId{40}), 3u);  // cursor at target
  EXPECT_EQ(gallop_docs(five, 0, DocId{50}), 4u);  // last element
  EXPECT_EQ(gallop_docs(five, 1, DocId{51}), 5u);
}

// --- DocSortedView -----------------------------------------------------

TEST(DocSortedViewTest, AdvanceFindsFirstAtLeastTarget) {
  const std::vector<Posting> p =
      by_doc({DocId{10}, DocId{20}, DocId{30}, DocId{40}, DocId{50}});
  const DocSortedView list(p, 1.0);
  EXPECT_EQ(list.advance(0, DocId{25}), 2u);   // -> doc 30
  EXPECT_EQ(list.advance(0, DocId{30}), 2u);   // exact
  EXPECT_EQ(list.advance(0, DocId{5}), 0u);    // already positioned
  EXPECT_EQ(list.advance(3, DocId{35}), 3u);   // from later cursor
  EXPECT_EQ(list.advance(0, DocId{100}), 5u);  // exhausted
  EXPECT_EQ(list.advance(5, DocId{10}), 5u);   // from end stays at end
}

TEST(DocSortedViewTest, AdvanceNeverMovesBackwards) {
  Rng rng(7);
  std::vector<DocId> docs;
  for (int i = 0; i < 5000; ++i) {
    docs.push_back(static_cast<DocId>(rng.next_below(100'000)));
  }
  std::sort(docs.begin(), docs.end());
  docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
  const std::vector<Posting> p = by_doc(docs);
  const DocSortedView list(p, 1.0);
  std::size_t pos = 0;
  for (int i = 0; i < 500; ++i) {
    const DocId target = static_cast<DocId>(rng.next_below(100'000));
    const std::size_t next = list.advance(pos, target);
    EXPECT_GE(next, pos);
    if (next < list.size()) {
      EXPECT_GE(list[next].doc, target);
      if (next > 0 && list[next].doc > target && next > pos) {
        EXPECT_LT(list[next - 1].doc, target);
      }
    }
    if (target >= (pos < list.size() ? list[pos].doc : DocId{})) pos = next;
    if (pos >= list.size()) pos = 0;
  }
}

// --- DaatProcessor ------------------------------------------------------------

CorpusConfig daat_corpus() {
  CorpusConfig cfg;
  cfg.num_docs = 3'000;
  cfg.vocab_size = 120;
  cfg.terms_per_doc = 20;
  return cfg;
}

class DaatTest : public ::testing::Test {
 protected:
  DaatTest()
      : rng_(55), corpus_(daat_corpus(), rng_), index_(corpus_),
        daat_index_(index_) {}

  Rng rng_;
  MaterializedCorpus corpus_;
  MaterializedIndex index_;
  DaatIndex daat_index_;
};

TEST_F(DaatTest, MatchesBruteForceIntersection) {
  constexpr std::size_t kAll = 100'000;  // keep every match
  DaatProcessor daat(kAll);
  std::uint64_t touched = 0;
  for (QueryId qid{}; qid < QueryId{20}; ++qid) {
    Query q{qid, {TermId{static_cast<std::uint32_t>(qid.raw() % 40)},
                  TermId{static_cast<std::uint32_t>(40 + qid.raw() % 40)}}};
    DaatStats stats;
    const ResultEntry result = daat.intersect(daat_index_, q, &stats);
    expect_matches_oracle(result, stats, brute_force_daat(index_, q, kAll));
    touched += stats.postings_touched;
  }
  EXPECT_EQ(touched, 15'810u);
}

TEST_F(DaatTest, ThreeTermIntersection) {
  DaatProcessor daat(100'000);
  Query q{QueryId{1}, {TermId{0}, TermId{1}, TermId{2}}};
  DaatStats stats;
  const auto result = daat.intersect(daat_index_, q, &stats);
  expect_matches_oracle(result, stats, brute_force_daat(index_, q, 100'000));
}

TEST_F(DaatTest, ScoresDescending) {
  DaatProcessor daat(50);
  Query q{QueryId{2}, {TermId{0}, TermId{1}}};
  const auto result = daat.intersect(daat_index_, q);
  for (std::size_t i = 1; i < result.docs.size(); ++i) {
    EXPECT_GE(result.docs[i - 1].score, result.docs[i].score);
  }
}

TEST_F(DaatTest, TopKBoundsOutput) {
  DaatProcessor daat(5);
  Query q{QueryId{3}, {TermId{0}, TermId{1}}};
  const auto result = daat.intersect(daat_index_, q);
  EXPECT_LE(result.docs.size(), 5u);
}

TEST_F(DaatTest, EmptyQueryAndMissingTerm) {
  DaatProcessor daat;
  EXPECT_TRUE(daat.intersect(daat_index_, Query{QueryId{4}, {}}).docs.empty());
}

TEST_F(DaatTest, SelectiveQueriesLeapTheDenseList) {
  // Intersecting a rare term with a dense one forces long advances in
  // the dense list.
  TermId rare = TermId{0}, dense = TermId{0};
  std::size_t min_df = ~0ull, max_df = 0;
  for (TermId t{}; t < TermId{index_.vocab_size()}; ++t) {
    const auto df = index_.postings(t)->size();
    if (df > 0 && df < min_df) {
      min_df = df;
      rare = t;
    }
    if (df > max_df) {
      max_df = df;
      dense = t;
    }
  }
  ASSERT_NE(rare, dense);
  DaatProcessor daat(100'000);
  DaatStats stats;
  daat.intersect(daat_index_, Query{QueryId{5}, {rare, dense}}, &stats);
  // Far fewer postings touched than the dense list holds.
  EXPECT_LT(stats.postings_touched, max_df);
}

}  // namespace
}  // namespace ssdse
