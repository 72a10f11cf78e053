#include <cmath>
#include <unordered_map>

#include <gtest/gtest.h>

#include "src/index/inverted_index.hpp"
#include "src/workload/log_analysis.hpp"
#include "src/workload/query_log.hpp"

namespace ssdse {
namespace {

QueryLogConfig small_log() {
  QueryLogConfig cfg;
  cfg.distinct_queries = 10'000;
  cfg.vocab_size = 5'000;
  return cfg;
}

TEST(QueryLogTest, QueryForRankDeterministic) {
  QueryLogGenerator a(small_log()), b(small_log());
  for (std::uint64_t r : {0ull, 1ull, 77ull, 9999ull}) {
    const Query qa = a.query_for_rank(r);
    const Query qb = b.query_for_rank(r);
    EXPECT_EQ(qa.id.raw(), r);
    EXPECT_EQ(qa.terms, qb.terms);
  }
}

TEST(QueryLogTest, TermCountWithinBounds) {
  QueryLogGenerator gen(small_log());
  for (int i = 0; i < 2000; ++i) {
    const Query q = gen.next();
    EXPECT_GE(q.terms.size(), 1u);
    EXPECT_LE(q.terms.size(), 4u);
    for (TermId t : q.terms) EXPECT_LT(t, TermId{5'000u});
  }
}

TEST(QueryLogTest, TermsWithinQueryAreDistinct) {
  QueryLogGenerator gen(small_log());
  for (int i = 0; i < 500; ++i) {
    const Query q = gen.next();
    for (std::size_t a = 0; a < q.terms.size(); ++a) {
      for (std::size_t b = a + 1; b < q.terms.size(); ++b) {
        EXPECT_NE(q.terms[a], q.terms[b]);
      }
    }
  }
}

TEST(QueryLogTest, PopularQueriesRepeat) {
  QueryLogGenerator gen(small_log());
  Counter freq;
  for (int i = 0; i < 20'000; ++i) freq.add(gen.next().id.raw());
  const auto sorted = freq.sorted();
  // Zipf: the hottest distinct query must repeat many times while the
  // tail is mostly singletons.
  EXPECT_GT(sorted[0].second, 100u);
  std::uint64_t singletons = 0;
  for (const auto& [id, c] : sorted) singletons += c == 1;
  EXPECT_GT(singletons, sorted.size() / 4);
}

TEST(QueryLogTest, TermAccessFrequencyZipfLike) {
  QueryLogGenerator gen(small_log());
  Counter freq;
  for (int i = 0; i < 20'000; ++i) {
    for (TermId t : gen.next().terms) freq.add(t.raw());
  }
  const auto sorted = freq.sorted();
  // Head term dominates the median term by a large factor (Fig. 3b).
  const auto median = sorted[sorted.size() / 2].second;
  EXPECT_GT(sorted[0].second, median * 20);
}

TEST(QueryLogTest, StreamsDifferBySeed) {
  QueryLogConfig a = small_log();
  QueryLogConfig b = small_log();
  b.seed = 1234;
  QueryLogGenerator ga(a), gb(b);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += ga.next().id == gb.next().id;
  EXPECT_LT(same, 50);
}

// --- Formulas (paper SSVI) ---------------------------------------------------

TEST(FormulaTest, ScMatchesPaperExample) {
  // Paper: SI = 1000 KB, PU = 50 %, SB = 128 KB  =>  SC = 4 blocks.
  EXPECT_EQ(formula_sc_blocks(1000 * KiB, 0.5, 128 * KiB), 4u);
}

TEST(FormulaTest, ScEdgeCases) {
  EXPECT_EQ(formula_sc_blocks(0, 0.5, 128 * KiB), 0u);
  EXPECT_EQ(formula_sc_blocks(1, 1.0, 128 * KiB), 1u);       // ceil
  EXPECT_EQ(formula_sc_blocks(128 * KiB, 1.0, 128 * KiB), 1u);
  EXPECT_EQ(formula_sc_blocks(128 * KiB + 1, 1.0, 128 * KiB), 2u);
  EXPECT_EQ(formula_sc_blocks(1 * MiB, 0.0, 128 * KiB), 1u);  // floor of 1
}

TEST(FormulaTest, EvProportionalToFreqInverseToSize) {
  EXPECT_DOUBLE_EQ(formula_ev(100, 4), 25.0);
  EXPECT_DOUBLE_EQ(formula_ev(100, 2), 50.0);
  EXPECT_DOUBLE_EQ(formula_ev(200, 4), 50.0);
  EXPECT_DOUBLE_EQ(formula_ev(100, 0), 0.0);
}

// --- Log analysis ---------------------------------------------------------------

TEST(LogAnalysisTest, AccumulatesFrequenciesAndRanksByEv) {
  CorpusConfig cc;
  cc.num_docs = 100'000;
  cc.vocab_size = 5'000;
  AnalyticIndex index(cc);
  const auto analysis = analyze_log(small_log(), index, 5'000, 128 * KiB);
  EXPECT_EQ(analysis.sample_size, 5'000u);
  EXPECT_GT(analysis.term_freq.total(), 5'000u);  // >1 term per query
  ASSERT_FALSE(analysis.terms_by_ev.empty());
  for (std::size_t i = 1; i < analysis.terms_by_ev.size(); ++i) {
    EXPECT_GE(analysis.terms_by_ev[i - 1].ev, analysis.terms_by_ev[i].ev);
  }
  ASSERT_FALSE(analysis.queries_by_freq.empty());
  EXPECT_GE(analysis.queries_by_freq[0].second,
            analysis.queries_by_freq.back().second);
}

TEST(LogAnalysisTest, TevThresholdMonotone) {
  CorpusConfig cc;
  cc.num_docs = 100'000;
  cc.vocab_size = 5'000;
  AnalyticIndex index(cc);
  const auto analysis = analyze_log(small_log(), index, 3'000, 128 * KiB);
  // Keeping more terms means a lower threshold.
  EXPECT_GE(analysis.tev_for_fraction(0.1), analysis.tev_for_fraction(0.9));
  EXPECT_GE(analysis.tev_for_fraction(0.9), 0.0);
}

TEST(LogAnalysisTest, TrainingIsReplayable) {
  // Same config -> same analysis (the generator stream is deterministic).
  CorpusConfig cc;
  cc.num_docs = 100'000;
  cc.vocab_size = 5'000;
  AnalyticIndex index(cc);
  const auto a = analyze_log(small_log(), index, 2'000, 128 * KiB);
  const auto b = analyze_log(small_log(), index, 2'000, 128 * KiB);
  ASSERT_EQ(a.terms_by_ev.size(), b.terms_by_ev.size());
  for (std::size_t i = 0; i < a.terms_by_ev.size(); ++i) {
    EXPECT_EQ(a.terms_by_ev[i].term, b.terms_by_ev[i].term);
    EXPECT_EQ(a.terms_by_ev[i].freq, b.terms_by_ev[i].freq);
  }
}

}  // namespace
}  // namespace ssdse
