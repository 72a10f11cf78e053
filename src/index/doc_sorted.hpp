// Precomputed doc-sorted index views (DESIGN.md §8).
//
// The DAAT engine needs doc-id-ordered postings; the seed rebuilt them
// per query (copy + sort of every touched list). This store builds them
// ONCE at index-construction time into one immutable index-wide arena,
// so a query borrows `DocSortedView`s (a span plus the idf, 24 bytes)
// with zero allocation and zero sorting on the hot path. Cursors move by
// galloping from their position (src/index/gallop.hpp), so the arena
// carries no skip table. Cf. Pibiri & Venturini: postings belong in
// contiguous, build-once form.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/index/gallop.hpp"
#include "src/index/posting.hpp"

namespace ssdse {

/// Borrowed, immutable doc-sorted slice of one term's postings plus the
/// term's DAAT idf. Valid as long as the postings it borrows live (the
/// owning DocSortedStore, or a processor's churn scratch).
class DocSortedView {
 public:
  DocSortedView() = default;
  DocSortedView(std::span<const Posting> postings, double idf)
      : postings_(postings), idf_(idf) {}

  [[nodiscard]] std::size_t size() const { return postings_.size(); }
  [[nodiscard]] bool empty() const { return postings_.empty(); }
  const Posting& operator[](std::size_t i) const { return postings_[i]; }
  [[nodiscard]] std::span<const Posting> postings() const { return postings_; }
  /// Smoothed idf used by the DAAT scorer: log(1 + N / (df + 1)).
  [[nodiscard]] double idf() const { return idf_; }

  /// Smallest index i >= `from` with doc id >= `target`, or size() if
  /// none.
  [[nodiscard]] std::size_t advance(std::size_t from, DocId target) const {
    return gallop(postings_, from, target, &Posting::doc);
  }

 private:
  std::span<const Posting> postings_;
  double idf_ = 0.0;
};

/// Build-once owner of every term's doc-sorted postings. All terms share
/// one contiguous arena; each term's slice is itself contiguous, so a
/// view never touches more than its own cache lines.
class DocSortedStore {
 public:
  void reserve(std::size_t num_terms, std::size_t total_postings);

  /// Append term `num_terms()`'s list. `doc_sorted` must be doc-id
  /// ascending (the materialized corpus emits postings in doc order).
  void add_list(std::span<const Posting> doc_sorted, double idf);

  DocSortedView view(TermId t) const {
    const auto p0 = posting_off_[t];
    return DocSortedView({postings_.data() + p0, posting_off_[t + 1] - p0},
                         idf_[t]);
  }

  [[nodiscard]] std::size_t num_terms() const { return idf_.size(); }
  [[nodiscard]] TermId end_term() const { return idf_.end_id(); }
  [[nodiscard]] std::size_t total_postings() const { return postings_.size(); }

 private:
  std::vector<Posting> postings_;        // arena: all terms, doc-ascending
  IdVector<TermId, std::uint64_t> posting_off_{0};  // per-term slice bounds
  IdVector<TermId, double> idf_;
};

}  // namespace ssdse
