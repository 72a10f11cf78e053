// Block-max pruning suite (DESIGN.md §13): the compressed posting-block
// store's structural invariants (block decode == doc-sorted arena,
// stored block max >= every decoded weight), and the equivalence
// contract of MaxScoreDaatProcessor — bit-identical top-K to the
// exhaustive DaatProcessor oracle across randomized corpora, crafted
// edge cases, and live-index churn.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include <gtest/gtest.h>

#include "src/engine/daat.hpp"
#include "src/index/block_postings.hpp"
#include "src/ingest/live_index.hpp"
#include "src/util/rng.hpp"

namespace ssdse {
namespace {

CorpusConfig pruning_corpus() {
  // Dense enough that multi-term queries intersect in > top_k documents,
  // so the heap fills and the prune gate actually arms.
  CorpusConfig cfg;
  cfg.num_docs = 6'000;
  cfg.vocab_size = 150;
  cfg.terms_per_doc = 25;
  cfg.seed = 77;
  return cfg;
}

void expect_docs_identical(const ResultEntry& pruned, const ResultEntry& ref,
                           QueryId qid) {
  ASSERT_EQ(pruned.query, ref.query);
  ASSERT_EQ(pruned.docs.size(), ref.docs.size()) << "query " << qid.raw();
  for (std::size_t i = 0; i < pruned.docs.size(); ++i) {
    EXPECT_EQ(pruned.docs[i].doc, ref.docs[i].doc)
        << "query " << qid.raw() << " rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(pruned.docs[i].score),
              std::bit_cast<std::uint32_t>(ref.docs[i].score))
        << "query " << qid.raw() << " rank " << i;
  }
}

// --- BlockPostingStore invariants ---------------------------------------

TEST(BlockPostingStoreTest, DecodeMatchesDocSortedArenaEveryTerm) {
  for (const CodecKind kind :
       {CodecKind::kBlockPacked, CodecKind::kStreamVByte}) {
    Rng rng(pruning_corpus().seed);
    MaterializedCorpus corpus(pruning_corpus(), rng);
    MaterializedIndex index(corpus);
    const DaatIndex daat(index);
    BlockPostingStore store(kind);
    for (TermId t{}; t < TermId{index.vocab_size()}; ++t) {
      const DocSortedView ref = daat.doc_sorted(t);
      store.add_list(ref.postings(), ref.idf());
      const BlockPostingView v = store.view(t);
      ASSERT_EQ(v.size(), ref.size()) << "term " << t.raw();
      Posting buf[kBlockPostings];
      std::size_t abs = 0;
      for (std::uint32_t b = 0; b < v.num_blocks(); ++b) {
        const std::uint32_t count = v.decode_block(b, buf);
        ASSERT_EQ(count, v.block_size(b));
        for (std::uint32_t i = 0; i < count; ++i, ++abs) {
          ASSERT_EQ(buf[i], ref[abs]) << "term " << t.raw() << " abs " << abs;
        }
        EXPECT_EQ(v.block(b).last_doc, buf[count - 1].doc);
      }
      ASSERT_EQ(abs, ref.size());
    }
    EXPECT_LT(store.encoded_bytes() * 5 / 2,
              store.total_postings() * kPostingBytes)
        << "fixed-corpus compression ratio under 2.5x";
  }
}

TEST(BlockPostingStoreTest, StoredMaxBoundsEveryDecodedWeight) {
  Rng rng(pruning_corpus().seed);
  MaterializedCorpus corpus(pruning_corpus(), rng);
  MaterializedIndex index(corpus);
  const DaatIndex daat(index);
  const BlockPostingStore& store = daat.block_store();
  Posting buf[kBlockPostings];
  std::uint64_t blocks_checked = 0;
  for (TermId t{}; t < TermId{index.vocab_size()}; ++t) {
    const BlockPostingView v = store.view(t);
    for (std::uint32_t b = 0; b < v.num_blocks(); ++b, ++blocks_checked) {
      const std::uint32_t count = v.decode_block(b, buf);
      double block_max = 0.0;
      for (std::uint32_t i = 0; i < count; ++i) {
        const double w = std::log(1.0 + buf[i].tf);
        // The invariant pruning soundness rests on: stored max >= every
        // weight in the block, as exact doubles.
        ASSERT_GE(v.block(b).max_weight, w) << "term " << t.raw() << " block " << b;
        block_max = std::max(block_max, w);
      }
      // ... and it is the exact max, not merely an upper bound.
      ASSERT_EQ(v.block(b).max_weight, block_max)
          << "term " << t.raw() << " block " << b;
    }
  }
  EXPECT_GT(blocks_checked, 100u);  // the corpus must exercise many blocks
}

/// find_block's reference: a linear scan of the blocks' last doc ids.
std::uint32_t scan_blocks(const BlockPostingView& v, std::uint32_t from,
                          DocId target) {
  while (from < v.num_blocks() && v.block(from).last_doc < target) ++from;
  return from;
}

TEST(BlockPostingStoreTest, FindBlockMatchesLinearScan) {
  // Synthetic lists of 2^k - 1, 2^k and 2^k + 1 blocks (short tail
  // block) clamp the galloping stride at the list end. Every cursor,
  // num_blocks() included, is probed with targets before, on and past
  // each block's last doc id.
  BlockPostingStore store;
  std::vector<std::uint32_t> block_counts = {0, 1, 2, 3};
  for (std::uint32_t k = 2; k <= 5; ++k) {
    block_counts.insert(block_counts.end(),
                        {(1u << k) - 1, 1u << k, (1u << k) + 1});
  }
  for (const std::uint32_t n : block_counts) {
    std::vector<Posting> p(n == 0 ? 0 : n * kBlockPostings - 5);
    for (std::uint32_t i = 0; i < p.size(); ++i) p[i] = {DocId{3 * i + 1}, 1};
    store.add_list(p, 1.0);
  }
  for (TermId t{}; t < static_cast<TermId>(store.num_terms()); ++t) {
    const BlockPostingView v = store.view(t);
    for (std::uint32_t from = 0; from <= v.num_blocks(); ++from) {
      for (std::uint32_t b = 0; b < v.num_blocks(); ++b) {
        const std::uint32_t last = v.block(b).last_doc.raw();
        for (const DocId target : {DocId{last - 1}, DocId{last},
                                   DocId{last + 1}, DocId{0}}) {
          ASSERT_EQ(v.find_block(from, target), scan_blocks(v, from, target))
              << "blocks " << v.num_blocks() << " from " << from
              << " target " << target.raw();
        }
      }
    }
  }

  // The longest list of a real corpus, at random cursors and targets.
  Rng rng(pruning_corpus().seed);
  MaterializedCorpus corpus(pruning_corpus(), rng);
  MaterializedIndex index(corpus);
  const DaatIndex daat(index);
  TermId longest{};
  for (TermId t{}; t < TermId{index.vocab_size()}; ++t) {
    if (daat.block_postings(t).size() > daat.block_postings(longest).size()) {
      longest = t;
    }
  }
  const BlockPostingView v = daat.block_postings(longest);
  ASSERT_GT(v.num_blocks(), 3u);
  Rng probe_rng(321);
  for (int i = 0; i < 500; ++i) {
    const auto target =
        static_cast<DocId>(probe_rng.next_below(pruning_corpus().num_docs + 5));
    const std::uint32_t from =
        static_cast<std::uint32_t>(probe_rng.next_below(v.num_blocks() + 1));
    EXPECT_EQ(v.find_block(from, target), scan_blocks(v, from, target))
        << "target " << target.raw() << " from " << from;
  }
}

// --- pruning equivalence -------------------------------------------------

TEST(MaxScoreEquivalenceTest, RandomizedQueriesBitIdenticalToOracle) {
  // The satellite contract: pruning never drops a true top-K document
  // across 1k randomized queries — verified bit-for-bit, docs and score
  // bits, against the exhaustive oracle.
  Rng rng(pruning_corpus().seed);
  MaterializedCorpus corpus(pruning_corpus(), rng);
  MaterializedIndex index(corpus);
  const DaatIndex daat(index);
  DaatProcessor oracle(10);
  MaxScoreDaatProcessor pruned(10);
  Rng qrng(909);
  for (QueryId qid{}; qid < QueryId{1'000}; ++qid) {
    const std::size_t n_terms = 1 + qrng.next_below(4);
    Query q{qid, {}};
    for (std::size_t i = 0; i < n_terms; ++i) {
      q.terms.push_back(
          static_cast<TermId>(qrng.next_below(pruning_corpus().vocab_size)));
    }
    const ResultEntry rr = oracle.intersect(daat, q);
    const ResultEntry pr = pruned.intersect(daat, q);
    expect_docs_identical(pr, rr, qid);
  }
  // The suite must not pass vacuously: over 1k dense-corpus queries the
  // prune gate must have fired and blocks must have been leapt.
  EXPECT_GT(pruned.pruning().prune_jumps, 0u);
  EXPECT_GT(pruned.pruning().postings_pruned, 0u);
  EXPECT_GT(pruned.pruning().blocks_decoded, 0u);
}

TEST(MaxScoreEquivalenceTest, StreamVByteIndexMatchesToo) {
  // Same contract with the byte-aligned codec driving the block store
  // (corpus codec selects it).
  CorpusConfig cfg = pruning_corpus();
  cfg.codec = "stream-vbyte";
  Rng rng(cfg.seed);
  MaterializedCorpus corpus(cfg, rng);
  MaterializedIndex index(corpus);
  const DaatIndex daat(index);
  ASSERT_EQ(daat.block_store().kind(), CodecKind::kStreamVByte);
  DaatProcessor oracle(10);
  MaxScoreDaatProcessor pruned(10);
  Rng qrng(911);
  for (QueryId qid{}; qid < QueryId{300}; ++qid) {
    Query q{qid, {}};
    const std::size_t n_terms = 1 + qrng.next_below(3);
    for (std::size_t i = 0; i < n_terms; ++i) {
      q.terms.push_back(static_cast<TermId>(qrng.next_below(cfg.vocab_size)));
    }
    expect_docs_identical(pruned.intersect(daat, q),
                          oracle.intersect(daat, q), qid);
  }
}

TEST(MaxScoreEquivalenceTest, UnboundedTopKNeverPrunes) {
  // With top_k larger than any match count the heap never fills, the
  // prune gate never arms, and results still match the oracle exactly.
  Rng rng(pruning_corpus().seed);
  MaterializedCorpus corpus(pruning_corpus(), rng);
  MaterializedIndex index(corpus);
  const DaatIndex daat(index);
  DaatProcessor oracle(100'000);
  MaxScoreDaatProcessor pruned(100'000);
  Rng qrng(913);
  for (QueryId qid{}; qid < QueryId{100}; ++qid) {
    Query q{qid, {}};
    q.terms.push_back(
        static_cast<TermId>(qrng.next_below(pruning_corpus().vocab_size)));
    q.terms.push_back(
        static_cast<TermId>(qrng.next_below(pruning_corpus().vocab_size)));
    expect_docs_identical(pruned.intersect(daat, q),
                          oracle.intersect(daat, q), qid);
  }
  EXPECT_EQ(pruned.pruning().prune_jumps, 0u);
  EXPECT_EQ(pruned.pruning().postings_pruned, 0u);
}

class MaxScoreEdgeTest : public ::testing::Test {
 protected:
  MaxScoreEdgeTest()
      : rng_(pruning_corpus().seed),
        corpus_(pruning_corpus(), rng_),
        index_(corpus_),
        daat_(index_) {}

  void check(const Query& q, std::size_t top_k = 10) {
    DaatProcessor oracle(top_k);
    MaxScoreDaatProcessor pruned(top_k);
    expect_docs_identical(pruned.intersect(daat_, q),
                          oracle.intersect(daat_, q), q.id);
  }

  Rng rng_;
  MaterializedCorpus corpus_;
  MaterializedIndex index_;
  DaatIndex daat_;
};

TEST_F(MaxScoreEdgeTest, EmptyQuery) { check(Query{QueryId{0}, {}}); }

TEST_F(MaxScoreEdgeTest, SingleTermQueries) {
  for (TermId t{}; t < TermId{40}; ++t) {
    check(Query{QueryId{t.raw()}, {t}});
    check(Query{QueryId{1'000 + t.raw()}, {t}}, /*top_k=*/1);  // θ rises fastest at k=1
  }
}

TEST_F(MaxScoreEdgeTest, DuplicatedTermQuery) {
  check(Query{QueryId{1}, {TermId{3}, TermId{3}}});
  check(Query{QueryId{2}, {TermId{7}, TermId{7}, TermId{7}}});
}

TEST_F(MaxScoreEdgeTest, TopKZeroAndOne) {
  check(Query{QueryId{5}, {TermId{1}, TermId{2}}}, /*top_k=*/0);
  check(Query{QueryId{6}, {TermId{1}, TermId{2}}}, /*top_k=*/1);
}

TEST_F(MaxScoreEdgeTest, ScratchReuseAcrossMixedQueries) {
  DaatProcessor oracle(10);
  MaxScoreDaatProcessor pruned(10);
  Rng rng(404);
  for (QueryId qid{}; qid < QueryId{200}; ++qid) {
    const std::size_t n_terms = 1 + rng.next_below(5);
    Query q{qid, {}};
    for (std::size_t i = 0; i < n_terms; ++i) {
      q.terms.push_back(
          static_cast<TermId>(rng.next_below(index_.vocab_size())));
    }
    expect_docs_identical(pruned.intersect(daat_, q),
                          oracle.intersect(daat_, q), qid);
  }
}

// --- pruning under churn -------------------------------------------------

TEST(MaxScoreChurnTest, DirtyTermsBypassStaleBlockMax) {
  // Churn episode: ingests raise tf's and deletes remove docs, so the
  // stored per-block max weights go stale for every touched term. The
  // block-max path must keep matching the (overlay-aware) exhaustive
  // oracle mid-segment, and again over a DaatIndex rebuilt after the
  // merge; the one built before it must refuse to answer.
  CorpusConfig cfg;
  cfg.num_docs = 1'200;
  cfg.vocab_size = 120;
  cfg.terms_per_doc = 18;
  cfg.seed = 31;
  Rng rng(cfg.seed);
  MaterializedCorpus corpus(cfg, rng);
  MaterializedIndex index(corpus);
  ingest::LiveIndex live(index, corpus, IngestConfig{});
  index.attach_overlay(&live);
  const DaatIndex before_merge(index);

  DaatProcessor oracle(10);
  MaxScoreDaatProcessor pruned(10);
  Rng crng(515);
  const auto run_queries = [&](const DaatIndex& daat, QueryId base) {
    for (QueryId i{}; i < QueryId{150}; ++i) {
      Query q{base + i.raw(), {}};
      const std::size_t n_terms = 1 + crng.next_below(3);
      for (std::size_t k = 0; k < n_terms; ++k) {
        q.terms.push_back(static_cast<TermId>(crng.next_below(cfg.vocab_size)));
      }
      expect_docs_identical(pruned.intersect(daat, q),
                            oracle.intersect(daat, q), q.id);
    }
  };

  // Mid-segment: ingest docs with deliberately large tf's (stale block
  // max would UNDER-estimate these — the dangerous direction), plus
  // deletes that orphan old maxima.
  for (int i = 0; i < 80; ++i) {
    ingest::DocBag bag;
    for (TermId t{}; t < TermId{6}; ++t) {
      bag.emplace_back(static_cast<TermId>(crng.next_below(cfg.vocab_size)),
                       20 + static_cast<std::uint32_t>(crng.next_below(40)));
    }
    std::sort(bag.begin(), bag.end());
    bag.erase(std::unique(bag.begin(), bag.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              bag.end());
    live.ingest(std::move(bag));
    if (i % 3 == 0) {
      live.erase(static_cast<DocId>(crng.next_below(cfg.num_docs)), nullptr);
    }
  }
  ASSERT_FALSE(live.clean());
  run_queries(before_merge, QueryId{10'000});

  // The merge rewrites the index's lists: the old DaatIndex is stale,
  // and every processor says so instead of answering from it.
  live.merge();
  ASSERT_TRUE(live.clean());
  const Query probe{QueryId{1}, {TermId{0}, TermId{1}}};
  EXPECT_THROW(oracle.intersect(before_merge, probe), std::logic_error);
  EXPECT_THROW(pruned.intersect(before_merge, probe), std::logic_error);

  // Rebuilt over the merged lists: blocks and block-max metadata come
  // from the merged postings, and the clean fast path is back in force.
  run_queries(DaatIndex(index), QueryId{20'000});
  index.attach_overlay(nullptr);
}

}  // namespace
}  // namespace ssdse
