// Precomputed doc-sorted index views (DESIGN.md §8).
//
// The DAAT engine needs doc-id-ordered postings; the seed rebuilt them
// per query (copy + sort of every touched list). This store holds them
// in one immutable index-wide arena, built once per DaatIndex (see
// src/engine/daat.hpp), so a query borrows `DocSortedView`s (a span
// plus the idf, 24 bytes) with zero allocation and zero sorting on the
// hot path. Cursors move by galloping from their position
// (src/index/gallop.hpp), so the arena carries no skip table. Cf.
// Pibiri & Venturini: postings belong in contiguous, build-once form.
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
  /// Append the next term's list (terms go in id order). `doc_sorted`
  /// must be doc-id ascending.
  void add_list(std::span<const Posting> doc_sorted, double idf);

  DocSortedView view(TermId t) const {
    const auto p0 = posting_off_[t];
    return DocSortedView({postings_.data() + p0, posting_off_[t + 1] - p0},
                         idf_[t]);
  }

 private:
  std::vector<Posting> postings_;        // arena: all terms, doc-ascending
  IdVector<TermId, std::uint64_t> posting_off_{0};  // per-term slice bounds
  IdVector<TermId, double> idf_;
};

}  // namespace ssdse
