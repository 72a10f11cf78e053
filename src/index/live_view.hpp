// LiveOverlay: the read-side interface through which the materialized
// index and the query engine see the live (write-optimized) ingest
// segment, without src/index depending on src/ingest.
//
// The contract is built around the merge-transparency invariant
// (DESIGN.md §12): doc ids are assigned monotonically (a new document's
// id is the current total slot count), deleted documents keep their slot
// (exactly like a rebuilt-from-scratch corpus keeps an empty bag at the
// deleted id), so
//   * base postings and live postings concatenate in doc order;
//   * N (num_docs) and every effective df match the rebuild oracle both
//     before and after a merge.
// A clean overlay (no operation since the last merge) must be
// indistinguishable from no overlay at all: the engine takes the exact
// zero-churn code paths and draws zero extra RNG values.
#pragma once

#include <cstdint>
#include <vector>

#include "src/index/posting.hpp"

namespace ssdse {

class LiveOverlay {
 public:
  virtual ~LiveOverlay() = default;

  /// True when no ingest/delete happened since the last merge. The
  /// engine's dual-source machinery is bypassed entirely in this state.
  [[nodiscard]] virtual bool clean() const = 0;

  /// Document slots added live since the last merge (tombstoned live
  /// docs still count — slots are never reclaimed).
  [[nodiscard]] virtual std::uint64_t live_doc_slots() const = 0;

  /// Tombstone check for any doc id, base or live.
  [[nodiscard]] virtual bool is_deleted(DocId d) const = 0;

  /// Postings of term t appended to the live segment since the last
  /// merge, tombstoned docs' included.
  [[nodiscard]] virtual std::uint64_t live_postings(TermId t) const = 0;

  /// Documents holding term t tombstoned since the last merge, base or
  /// live. Each one removes exactly one posting of t (bags hold a term
  /// once), so a term's effective df is its stored df plus
  /// live_postings minus deleted_df.
  [[nodiscard]] virtual std::uint64_t deleted_df(TermId t) const = 0;

  /// Term content changed since the last merge: live postings exist or
  /// base postings were tombstoned. Dirty terms take the dual-source
  /// path; clean terms only need an idf refresh (N may have grown).
  [[nodiscard]] bool term_dirty(TermId t) const {
    return live_postings(t) > 0 || deleted_df(t) > 0;
  }

  /// Append term t's non-tombstoned live postings, doc-ascending, to
  /// `out`.
  virtual void collect_live(TermId t, std::vector<Posting>& out) const = 0;
};

}  // namespace ssdse
