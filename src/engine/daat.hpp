// Document-at-a-time (DAAT) conjunctive query processing: doc-id-ordered
// lists are intersected by repeatedly advancing the laggard cursor. Every
// cursor moves by galloping from its position (src/index/gallop.hpp),
// which leaps runs of postings without the skip tables Lucene keeps;
// the paper's "skipped reads" (§III) are modelled in simulated time by
// CacheManager, not here.
//
// Two processors share the algorithm (DESIGN.md §8, §13), both over a
// DaatIndex, the engine's own doc-ordered and block postings:
//  * DaatProcessor — the exhaustive hot path: consumes the index's
//    precomputed DocSortedViews (zero per-query copy/sort/allocation,
//    scratch buffers reused across queries, bounded-heap top-K); also
//    the bit-exact top-K equivalence oracle for the block-max path;
//  * MaxScoreDaatProcessor — block-max WAND/MaxScore hybrid over the
//    compressed posting blocks: leaps candidate ranges whose summed
//    per-block score upper bound cannot enter the full top-K heap, and
//    skips whole blocks (metadata-only) without decoding them. Returns
//    bit-identical top-K to DaatProcessor by construction (see the
//    invariant notes at the implementation).
// The tests pin DaatProcessor to a brute-force scored intersection
// (tests/daat_oracle.hpp) that shares no code with the engine.
#pragma once

#include <cstdint>
#include <vector>

#include "src/engine/query.hpp"
#include "src/engine/result.hpp"
#include "src/engine/top_k.hpp"
#include "src/index/block_postings.hpp"
#include "src/index/doc_sorted.hpp"
#include "src/index/inverted_index.hpp"

namespace ssdse {

/// The DAAT engine's postings for one MaterializedIndex: each list put
/// in doc order (to_doc_order) into an arena and encoded as blocks (the
/// corpus codec if it is a block codec, else block-packed), idfs over
/// base_docs(). Churn is read through the index's overlay. A merge
/// rewrites the index's lists, so the processors throw std::logic_error
/// on a DaatIndex built before it: rebuild after a merge. The index must
/// outlive the DaatIndex.
class DaatIndex {
 public:
  explicit DaatIndex(const MaterializedIndex& index);

  [[nodiscard]] const MaterializedIndex& index() const { return index_; }
  DocSortedView doc_sorted(TermId t) const { return doc_sorted_.view(t); }
  BlockPostingView block_postings(TermId t) const { return blocks_.view(t); }
  [[nodiscard]] const BlockPostingStore& block_store() const {
    return blocks_;
  }

  /// Throws std::logic_error if the index merged after this was built.
  void check_current() const;

  /// Materialize a churned term's current doc-sorted postings into
  /// `scratch`: its arena slice minus tombstones, then its live postings
  /// (doc-ascending by the monotone-id invariant). Returns false,
  /// leaving `scratch` untouched, when the term is clean.
  bool live_doc_sorted(TermId t, std::vector<Posting>& scratch) const;

 private:
  const MaterializedIndex& index_;
  std::uint64_t generation_;   // index generation the stores reflect
  DocSortedStore doc_sorted_;  // doc-ordered projections
  BlockPostingStore blocks_;   // compressed blocks + skip/max metadata
};

struct DaatStats {
  std::uint64_t docs_scored = 0;       // documents containing all terms
  std::uint64_t postings_touched = 0;  // driver postings + advance calls
};

/// Conjunctive (AND) top-K: returns documents containing *every* query
/// term, scored by summed log-tf x idf, descending. Intersects the
/// index's precomputed doc-sorted views; per-processor scratch buffers
/// make intersect() allocation-free apart from the returned top-K.
/// Not thread-safe: use one processor per worker thread.
class DaatProcessor {
 public:
  explicit DaatProcessor(std::size_t top_k = kTopK) : top_k_(top_k) {}

  ResultEntry intersect(const DaatIndex& daat, const Query& query,
                        DaatStats* stats = nullptr);

 private:
  std::size_t top_k_;
  // Scratch reused across queries (sized to the query's term count).
  std::vector<DocSortedView> views_;
  std::vector<std::size_t> cursor_;
  std::vector<std::uint32_t> order_;
  // Churn path only: per-term materialized postings (base minus
  // tombstones plus live segment) that the views borrow. Untouched —
  // and unallocated — while the attached overlay is clean.
  std::vector<std::vector<Posting>> scratch_;
  TopKAccumulator top_docs_;
};

/// Cumulative block-max pruning observability (registry counters
/// `daat.pruning.*`). Counts accumulate across queries on purpose: the
/// registry reads them as monotone counters.
struct PruningStats {
  std::uint64_t blocks_decoded = 0;  // blocks actually unpacked
  std::uint64_t blocks_skipped = 0;  // blocks leapt via metadata alone
  std::uint64_t prune_jumps = 0;     // candidate ranges leapt on bound
  std::uint64_t postings_pruned = 0; // driver postings never evaluated
};

/// Block-max DAAT (DESIGN.md §13): same conjunctive intersection as
/// DaatProcessor, driven over the index's compressed posting blocks.
/// Once the top-K heap is full, each candidate is preceded by a bound
/// check — the sum over query terms of (current block's max weight x
/// idf), accumulated in the exact float order the real score would be.
/// If even that bound rounds below the heap's worst score, no document
/// up to the nearest block boundary can enter the heap, and the driver
/// leaps the whole range. Results are bit-identical to DaatProcessor;
/// DaatStats are not (that is the point), so fingerprints that fold in
/// stats are pinned on the exhaustive oracle only.
/// Not thread-safe: one processor per worker thread.
class MaxScoreDaatProcessor {
 public:
  explicit MaxScoreDaatProcessor(std::size_t top_k = kTopK)
      : top_k_(top_k) {}

  /// Overlay-aware: dirty terms bypass their stale blocks and are
  /// re-materialized into scratch with an exact, freshly computed max
  /// weight, so pruning stays safe under churn.
  ResultEntry intersect(const DaatIndex& daat, const Query& query,
                        DaatStats* stats = nullptr);

  [[nodiscard]] const PruningStats& pruning() const { return pruning_; }
  void reset_pruning() { pruning_ = PruningStats{}; }

 private:
  /// Per-term state over either a compressed block view (flat ==
  /// nullptr) or churn-path scratch postings (flat set, view unused).
  struct Cursor {
    BlockPostingView view;
    const Posting* flat = nullptr;
    std::uint32_t size = 0;
    std::uint32_t pos = 0;      // absolute posting index
    std::uint32_t decoded = 0;  // block currently in buf (kNoBlock: none)
    std::uint32_t shallow = 0;  // block aligned by bound checks only
    double idf = 0.0;
    double flat_max = 0.0;      // scratch path: exact max weight
    Posting* buf = nullptr;     // per-term slot in the decode scratch
  };

  static constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;

  const Posting& at(Cursor& c, std::uint32_t pos);
  std::uint32_t advance(Cursor& c, std::uint32_t from, DocId target);

  std::size_t top_k_;
  // Scratch reused across queries.
  std::vector<Cursor> cursors_;
  std::vector<std::uint32_t> order_;
  std::vector<std::vector<Posting>> scratch_;    // churn-path postings
  std::vector<std::vector<Posting>> block_buf_;  // per-term decode buffers
  TopKAccumulator top_docs_;
  PruningStats pruning_;
};

}  // namespace ssdse
