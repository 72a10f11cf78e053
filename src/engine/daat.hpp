// Document-at-a-time (DAAT) conjunctive query processing: doc-id-ordered
// lists are intersected by repeatedly advancing the laggard cursor. Every
// cursor moves by galloping from its position (src/index/gallop.hpp),
// which leaps runs of postings without the skip tables Lucene keeps;
// the paper's "skipped reads" (§III) are modelled in simulated time by
// CacheManager, not here.
//
// DaatProcessor (DESIGN.md §8) runs over a DaatIndex, the engine's own
// doc-ordered postings: it consumes the index's precomputed
// DocSortedViews (zero per-query copy/sort/allocation, scratch buffers
// reused across queries, bounded-heap top-K). The tests pin it to a
// brute-force scored intersection (tests/daat_oracle.hpp) that shares
// no code with the engine.
#pragma once

#include <cstdint>
#include <vector>

#include "src/engine/query.hpp"
#include "src/engine/result.hpp"
#include "src/engine/top_k.hpp"
#include "src/index/doc_sorted.hpp"
#include "src/index/inverted_index.hpp"

namespace ssdse {

/// The DAAT engine's postings for one MaterializedIndex: each list put
/// in doc order (to_doc_order) into an arena, idfs over base_docs().
/// Churn is read through the index's overlay. A merge rewrites the
/// index's lists, so DaatProcessor throws std::logic_error on a DaatIndex
/// built before it: rebuild after a merge. The index must outlive the
/// DaatIndex.
class DaatIndex {
 public:
  explicit DaatIndex(const MaterializedIndex& index);

  [[nodiscard]] const MaterializedIndex& index() const { return index_; }
  DocSortedView doc_sorted(TermId t) const { return doc_sorted_.view(t); }

  /// Throws std::logic_error if the index merged after this was built.
  void check_current() const;

  /// Materialize a churned term's current doc-sorted postings into
  /// `scratch`: its arena slice minus tombstones, then its live postings
  /// (doc-ascending by the monotone-id invariant). Returns false,
  /// leaving `scratch` untouched, when the term is clean.
  bool live_doc_sorted(TermId t, std::vector<Posting>& scratch) const;

 private:
  const MaterializedIndex& index_;
  std::uint64_t generation_;   // index generation the arena reflects
  DocSortedStore doc_sorted_;  // doc-ordered projections
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

}  // namespace ssdse
