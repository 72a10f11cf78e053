#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/index/corpus.hpp"
#include "src/index/inverted_index.hpp"
#include "src/index/layout.hpp"
#include "src/index/posting.hpp"
#include "src/util/rng.hpp"

namespace ssdse {
namespace {

// --- PostingList ---------------------------------------------------------

TEST(PostingListTest, SortedByDescendingTf) {
  PostingList list({{DocId{1}, 5}, {DocId{2}, 50}, {DocId{3}, 1}, {DocId{4}, 50}});
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[0].tf, 50u);
  EXPECT_EQ(list[1].tf, 50u);
  EXPECT_LT(list[0].doc, list[1].doc);  // tie broken by doc id
  EXPECT_EQ(list[3].tf, 1u);
}

TEST(PostingListTest, EmptyList) {
  PostingList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.bytes(), 0u);
}

TEST(PostingListTest, BytesUsesPostingSizeModel) {
  PostingList list({{DocId{0}, 1}, {DocId{1}, 1}});
  EXPECT_EQ(list.bytes(), 2 * kPostingBytes);
}

TEST(PostingListTest, DocOrderEqualsSortByDoc) {
  // Ranked lists over distinct docs with tfs drawn from [1, max_tf]:
  // empty, one tf for all (a single run), all-distinct tfs (runs of
  // one, max_tf 0 below) and random mixes.
  Rng rng(11);
  std::vector<Posting> by_doc;  // reused: every call overwrites it
  for (int rep = 0; rep < 24; ++rep) {
    const std::size_t n = rep == 0 ? 0 : 1 + rng.next_below(400);
    const std::uint32_t max_tf = rep % 4 == 1 ? 1 : rep % 4 == 2 ? 0 : 9;
    std::vector<Posting> postings;
    DocId doc{};
    for (std::size_t i = 0; i < n; ++i) {
      doc = doc + static_cast<std::uint32_t>(1 + rng.next_below(50));
      const auto tf = max_tf == 0
                          ? static_cast<std::uint32_t>(i + 1)
                          : 1 + static_cast<std::uint32_t>(
                                    rng.next_below(max_tf));
      postings.push_back(Posting{doc, tf});
    }
    const PostingList list(std::move(postings));
    to_doc_order(list.postings(), by_doc);
    std::vector<Posting> want(list.postings().begin(), list.postings().end());
    std::sort(want.begin(), want.end(),
              [](const Posting& a, const Posting& b) { return a.doc < b.doc; });
    EXPECT_EQ(by_doc, want) << "rep " << rep << " n " << n;
  }
}

// --- TermStatsModel ----------------------------------------------------------

CorpusConfig small_corpus() {
  CorpusConfig cfg;
  cfg.num_docs = 100'000;
  cfg.vocab_size = 20'000;
  cfg.terms_per_doc = 50;
  return cfg;
}

TEST(TermStatsTest, DfDecreasesWithRankAndIsCapped) {
  TermStatsModel model(small_corpus());
  for (TermId t = TermId{1}; t < TermId{model.vocab_size()}; ++t) {
    EXPECT_LE(model.df(t), model.df(TermId{t.raw() - 1}) + 1) << "rank " << t.raw();
    EXPECT_LE(model.df(t), model.num_docs());
    EXPECT_GE(model.df(t), 1u);
  }
}

TEST(TermStatsTest, TotalPostingsNearTarget) {
  const auto cfg = small_corpus();
  TermStatsModel model(cfg);
  const double target =
      static_cast<double>(cfg.num_docs) * cfg.terms_per_doc;
  // Capping at num_docs removes some mass; within a factor of 2.
  EXPECT_GT(static_cast<double>(model.total_postings()), target * 0.3);
  EXPECT_LT(static_cast<double>(model.total_postings()), target * 1.5);
}

TEST(TermStatsTest, UtilizationInRangeAndLowForHeadTerms) {
  TermStatsModel model(small_corpus());
  double head_pu = 0, tail_pu = 0;
  const TermId head_n = TermId{20}, tail_n = TermId{20};
  for (TermId t{}; t < head_n; ++t) head_pu += model.utilization(t);
  for (TermId t{model.vocab_size() - tail_n.raw()};
       t < TermId{model.vocab_size()}; ++t) {
    tail_pu += model.utilization(t);
  }
  for (TermId t{}; t < TermId{model.vocab_size()}; t = t + 97) {
    EXPECT_GT(model.utilization(t), 0.0);
    EXPECT_LE(model.utilization(t), 1.0);
  }
  // Long head lists are processed shallowly; short tail lists fully.
  EXPECT_LT(head_pu / head_n.raw(), tail_pu / tail_n.raw());
}

TEST(TermStatsTest, ListBytesMatchPostingModel) {
  TermStatsModel model(small_corpus());
  EXPECT_EQ(model.list_bytes(TermId{0}), model.df(TermId{0}) * kPostingBytes);
}

TEST(TermStatsTest, BuildWallTimeIsMeasured) {
  TermStatsModel model(small_corpus());
  // Exposed as the "index.model.build_ms" telemetry gauge; must be a
  // sane, finite duration.
  EXPECT_GT(model.build_wall_ms(), 0.0);
  EXPECT_LT(model.build_wall_ms(), 60'000.0);
}

TEST(TermStatsTest, CodecChangesModeledListBytes) {
  CorpusConfig cfg = small_corpus();
  cfg.codec = "varint";
  TermStatsModel varint(cfg);
  TermStatsModel raw(small_corpus());  // default codec is raw
  EXPECT_EQ(raw.df(TermId{0}), varint.df(TermId{0}));
  EXPECT_LT(varint.list_bytes(TermId{0}), raw.list_bytes(TermId{0}));
}

// --- IndexLayout ---------------------------------------------------------------

TEST(LayoutTest, ExtentsAlignedAndDisjoint) {
  IndexLayout layout({1000, 5000, 1, 4096}, /*align=*/4096);
  Bytes prev_end = 0;
  for (TermId t{}; t < TermId{4}; ++t) {
    const Extent& e = layout.extent(t);
    EXPECT_EQ(e.offset % 4096, 0u);
    EXPECT_GE(e.offset, prev_end);
    prev_end = e.offset + e.length;
  }
  EXPECT_EQ(layout.extent(TermId{1}).length, 5000u);
  EXPECT_GE(layout.total_bytes(), 1000u + 5000 + 1 + 4096);
}

TEST(LayoutTest, PrefixExtentClamped) {
  IndexLayout layout({10'000});
  const Extent p = layout.prefix_extent(TermId{0}, 2'000);
  EXPECT_EQ(p.offset, layout.extent(TermId{0}).offset);
  EXPECT_EQ(p.length, 2'000u);
  EXPECT_EQ(layout.prefix_extent(TermId{0}, 99'999).length, 10'000u);
}

TEST(LayoutTest, LbaConversion) {
  IndexLayout layout({1024, 1024}, 4096, /*base_offset=*/8192);
  EXPECT_EQ(layout.extent(TermId{0}).lba(), 8192 / kSectorSize);
  EXPECT_EQ(layout.extent(TermId{0}).sectors(), 2u);
}

// --- MaterializedCorpus / MaterializedIndex ----------------------------------

CorpusConfig tiny_corpus() {
  CorpusConfig cfg;
  cfg.num_docs = 500;
  cfg.vocab_size = 200;
  cfg.terms_per_doc = 12;
  return cfg;
}

TEST(MaterializedTest, CorpusDocsHaveSortedUniqueTerms) {
  Rng rng(31);
  MaterializedCorpus corpus(tiny_corpus(), rng);
  ASSERT_EQ(corpus.num_docs(), 500u);
  for (DocId d{}; d < DocId{50}; ++d) {
    const auto& doc = corpus.doc(d);
    EXPECT_FALSE(doc.empty());
    for (std::size_t i = 1; i < doc.size(); ++i) {
      EXPECT_LT(doc[i - 1].first, doc[i].first);
    }
    for (const auto& [term, tf] : doc) {
      EXPECT_LT(term, TermId{200u});
      EXPECT_GE(tf, 1u);
    }
  }
}

// The perf corpus (perfbench's materialized workloads: 40k docs, 2000
// terms, 60 per doc, default seed), bag for bag: generation must draw
// the same RNG values and build the same term-sorted bags. The digest
// folds every bag's length and (term, tf) pairs plus the generator's
// next value, as recorded with the map-per-document generator.
TEST(MaterializedTest, PerfCorpusBagsArePinned) {
  CorpusConfig cfg;
  cfg.num_docs = 40'000;
  cfg.vocab_size = 2'000;
  cfg.terms_per_doc = 60;
  Rng rng(cfg.seed);
  const MaterializedCorpus corpus(cfg, rng);
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over 64-bit words
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  std::uint64_t postings = 0;
  for (DocId d{}; d.raw() < corpus.num_docs(); ++d) {
    const auto& bag = corpus.doc(d);
    mix(bag.size());
    for (const auto& [t, tf] : bag) {
      mix(t.raw());
      mix(tf);
    }
    postings += bag.size();
  }
  mix(rng.next_u64());
  EXPECT_EQ(postings, 3'095'962u);
  EXPECT_EQ(h, 13424410937097934737ull);
}

TEST(MaterializedTest, IndexConsistentWithCorpus) {
  Rng rng(32);
  MaterializedCorpus corpus(tiny_corpus(), rng);
  MaterializedIndex index(corpus);
  // df(t) == number of docs containing t; verify on a sample.
  for (TermId t{}; t < TermId{20}; ++t) {
    std::uint64_t df = 0;
    for (DocId d{}; d < static_cast<DocId>(corpus.num_docs()); ++d) {
      for (const auto& [term, tf] : corpus.doc(d)) df += term == t;
    }
    EXPECT_EQ(index.term_meta(t).df, df) << "term " << t.raw();
    EXPECT_EQ(index.postings(t)->size(), df);
  }
}

TEST(MaterializedTest, UtilizationRecordingRunsMean) {
  Rng rng(33);
  MaterializedCorpus corpus(tiny_corpus(), rng);
  MaterializedIndex index(corpus);
  EXPECT_DOUBLE_EQ(index.term_meta(TermId{0}).utilization, 1.0);  // optimistic prior
  index.record_utilization(TermId{0}, 0.5);
  EXPECT_NEAR(index.term_meta(TermId{0}).utilization, 0.5, 1e-6);
  index.record_utilization(TermId{0}, 0.7);
  EXPECT_NEAR(index.term_meta(TermId{0}).utilization, 0.6, 1e-6);
}

TEST(MaterializedTest, OutOfRangeTermThrows) {
  Rng rng(34);
  MaterializedCorpus corpus(tiny_corpus(), rng);
  MaterializedIndex index(corpus);
  EXPECT_THROW(index.term_meta(TermId{5000}), std::out_of_range);
  EXPECT_THROW(index.record_utilization(TermId{5000}, 0.5), std::out_of_range);
}

// --- AnalyticIndex --------------------------------------------------------------

TEST(AnalyticIndexTest, MetaMatchesModel) {
  AnalyticIndex index(small_corpus());
  EXPECT_EQ(index.num_docs(), 100'000u);
  EXPECT_EQ(index.vocab_size(), 20'000u);
  const TermMeta m = index.term_meta(TermId{0});
  EXPECT_EQ(m.df, index.model().df(TermId{0}));
  EXPECT_EQ(m.list_bytes, index.model().list_bytes(TermId{0}));
  EXPECT_EQ(index.postings(TermId{0}), nullptr);  // analytic: no materialized lists
  EXPECT_THROW(index.term_meta(TermId{20'000}), std::out_of_range);
}

TEST(AnalyticIndexTest, LayoutCoversEveryTerm) {
  AnalyticIndex index(small_corpus());
  EXPECT_EQ(index.layout().terms(), index.vocab_size());
  EXPECT_GT(index.layout().total_bytes(), 0u);
  EXPECT_EQ(index.layout().extent(TermId{5}).length, index.term_meta(TermId{5}).list_bytes);
}

}  // namespace
}  // namespace ssdse
