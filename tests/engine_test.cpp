#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/engine/scorer.hpp"
#include "src/index/corpus.hpp"
#include "src/index/inverted_index.hpp"

namespace ssdse {
namespace {

CorpusConfig tiny_corpus() {
  CorpusConfig cfg;
  cfg.num_docs = 2'000;
  cfg.vocab_size = 300;
  cfg.terms_per_doc = 15;
  return cfg;
}

class MaterializedScorerTest : public ::testing::Test {
 protected:
  MaterializedScorerTest()
      : rng_(41), corpus_(tiny_corpus(), rng_), index_(corpus_) {}

  Rng rng_;
  MaterializedCorpus corpus_;
  MaterializedIndex index_;
  Scorer scorer_;
};

TEST_F(MaterializedScorerTest, TopKBoundedAndSorted) {
  Query q{QueryId{1}, {TermId{0}, TermId{1}, TermId{2}}};
  const ScoreOutcome out = scorer_.score(index_, q);
  EXPECT_LE(out.result.docs.size(), kTopK);
  EXPECT_FALSE(out.result.docs.empty());
  for (std::size_t i = 1; i < out.result.docs.size(); ++i) {
    EXPECT_GE(out.result.docs[i - 1].score, out.result.docs[i].score);
  }
  EXPECT_EQ(out.result.query.raw(), 1u);
}

TEST_F(MaterializedScorerTest, EarlyTerminationPartialProcessing) {
  // Term 0 is the most frequent: its long list must not be fully walked.
  // The walked fraction is the utilization recorded back into the index
  // (the first sample replaces the 1.0 prior).
  Query q{QueryId{2}, {TermId{0}}};
  const ScoreOutcome out = scorer_.score(index_, q);
  const std::uint64_t df = index_.term_meta(TermId{0}).df;
  EXPECT_GT(out.total_postings, 0u);
  EXPECT_LT(out.total_postings, df);
  EXPECT_EQ(index_.term_meta(TermId{0}).utilization,
            static_cast<double>(static_cast<float>(
                static_cast<double>(out.total_postings) /
                static_cast<double>(df))));
}

TEST_F(MaterializedScorerTest, UtilizationRecordedBackIntoIndex) {
  Query q{QueryId{3}, {TermId{5}}};
  scorer_.score(index_, q);
  // After a real scoring pass, the optimistic 1.0 prior is replaced by
  // the measured value.
  EXPECT_LE(index_.term_meta(TermId{5}).utilization, 1.0);
  EXPECT_GT(index_.term_meta(TermId{5}).utilization, 0.0);
}

TEST_F(MaterializedScorerTest, DeterministicForSameQuery) {
  Query q{QueryId{4}, {TermId{1}, TermId{7}}};
  const auto a = scorer_.score(index_, q);
  const auto b = scorer_.score(index_, q);
  ASSERT_EQ(a.result.docs.size(), b.result.docs.size());
  for (std::size_t i = 0; i < a.result.docs.size(); ++i) {
    EXPECT_EQ(a.result.docs[i], b.result.docs[i]);
  }
}

TEST_F(MaterializedScorerTest, CpuTimeGrowsWithPostings) {
  const ScoreOutcome one = scorer_.score(index_, Query{QueryId{5}, {TermId{250}}});
  const ScoreOutcome many = scorer_.score(index_, Query{QueryId{6}, {TermId{0}, TermId{1}, TermId{2}, TermId{3}}});
  EXPECT_GT(many.total_postings, one.total_postings);
  EXPECT_GT(many.cpu_time, one.cpu_time);
}

TEST_F(MaterializedScorerTest, TighterCutoffProcessesLess) {
  ScorerConfig relaxed;
  relaxed.tf_cutoff = 0.05;
  ScorerConfig tight;
  tight.tf_cutoff = 0.9;
  const auto more = Scorer(relaxed).score(index_, Query{QueryId{7}, {TermId{0}}});
  const auto less = Scorer(tight).score(index_, Query{QueryId{8}, {TermId{0}}});
  EXPECT_LE(less.total_postings, more.total_postings);
}

// --- Analytic path -------------------------------------------------------

TEST(AnalyticScorerTest, SynthesizesDeterministicTopK) {
  CorpusConfig cfg;
  cfg.num_docs = 50'000;
  cfg.vocab_size = 5'000;
  AnalyticIndex index(cfg);
  Scorer scorer;
  const Query q{QueryId{42}, {TermId{0}, TermId{3}}};
  const auto a = scorer.score(index, q);
  const auto b = scorer.score(index, q);
  ASSERT_EQ(a.result.docs.size(), kTopK);
  for (std::size_t i = 0; i < kTopK; ++i) {
    EXPECT_EQ(a.result.docs[i], b.result.docs[i]);
    EXPECT_LT(a.result.docs[i].doc, static_cast<DocId>(cfg.num_docs));
  }
}

TEST(AnalyticScorerTest, PostingsProcessedFollowUtilization) {
  CorpusConfig cfg;
  cfg.num_docs = 50'000;
  cfg.vocab_size = 5'000;
  AnalyticIndex index(cfg);
  Scorer scorer;
  const auto out =
      scorer.score(index, Query{QueryId{1}, {TermId{10}, TermId{20}}});
  std::uint64_t expected = 0;
  for (const TermId t : {TermId{10}, TermId{20}}) {
    const TermMeta meta = index.term_meta(t);
    expected += static_cast<std::uint64_t>(
        std::ceil(meta.utilization * static_cast<double>(meta.df)));
  }
  EXPECT_EQ(out.total_postings, expected);
}

TEST(AnalyticScorerTest, DifferentQueriesDifferentResults) {
  CorpusConfig cfg;
  cfg.num_docs = 50'000;
  cfg.vocab_size = 5'000;
  AnalyticIndex index(cfg);
  Scorer scorer;
  const auto a = scorer.score(index, Query{QueryId{1}, {TermId{0}}});
  const auto b = scorer.score(index, Query{QueryId{2}, {TermId{0}}});
  EXPECT_NE(a.result.docs[0].doc, b.result.docs[0].doc);
}

TEST(ResultEntryTest, FixedSizeModel) {
  ResultEntry e;
  EXPECT_EQ(e.bytes(), kResultEntryBytes);
  EXPECT_EQ(kResultEntryBytes, 20'000u);  // 50 docs x 400 B (paper SSVI)
}

}  // namespace
}  // namespace ssdse
