// LiveIndex: the ingest-side owner of churn state (DESIGN.md §12).
//
// Ties together the write-optimized LiveSegment, the document tombstone
// bitmap and the per-term deleted-df counters, and implements the
// LiveOverlay interface the materialized index and the query engine read
// through. The core invariants:
//  * doc ids are assigned monotonically: a new document's id equals the
//    current total slot count, so live postings sort after base postings
//    and per-term chains are doc-ascending by construction;
//  * deleted documents keep their slot (the rebuild oracle keeps an
//    empty bag at the same id), so N and every assigned id are stable
//    under churn;
//  * merge() folds the segment into the materialized lists and is
//    content-neutral — a query sees bit-identical results immediately
//    before and after (same N, same effective df per term), which is why
//    merging needs no cache invalidation.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/index/corpus.hpp"
#include "src/index/inverted_index.hpp"
#include "src/index/live_view.hpp"
#include "src/ingest/live_segment.hpp"
#include "src/util/bitmap.hpp"

namespace ssdse {

/// Live-index (incremental ingestion) configuration. Default-off: with
/// `enabled == false` no overlay is attached and every code path —
/// including RNG draw order — is bit-identical to a read-only build.
struct IngestConfig {
  bool enabled = false;
  /// Fold the segment into the materialized index once it holds this
  /// many postings (0 disables the size trigger).
  std::uint64_t merge_segment_postings = 64 * 1024;
  /// ... or after this many ingest/delete operations (0 disables; the
  /// "age" trigger — deletes add no postings, so a delete-heavy stream
  /// would otherwise never merge).
  std::uint64_t merge_segment_ops = 0;
  /// LiveSegment chain-block granularity, in postings.
  std::uint32_t segment_block_size = 16;
};

namespace ingest {

/// One (term, tf) bag — the document representation shared with
/// MaterializedCorpus.
using DocBag = std::vector<std::pair<TermId, std::uint32_t>>;

struct MergeOutcome {
  std::uint64_t terms_rebuilt = 0;
  /// Postings written into rebuilt lists (base survivors + live).
  std::uint64_t postings_rewritten = 0;
};

class LiveIndex final : public LiveOverlay {
 public:
  /// The index and corpus must outlive the LiveIndex; the caller is
  /// responsible for `index.attach_overlay(&live)`.
  LiveIndex(MaterializedIndex& index, const MaterializedCorpus& corpus,
            const IngestConfig& cfg);

  /// Ingest one document (bag sorted by term id, each term once,
  /// tfs > 0, term ids validated by the caller; SearchSystem's
  /// normalize_bag guarantees all four). Returns the assigned doc id.
  DocId ingest(DocBag bag);

  /// Tombstone a document (base or live). Returns false if the id is
  /// out of range or already deleted. On success, appends the doc's
  /// terms to `affected_terms` when non-null (cache-epoch bumps).
  bool erase(DocId d, std::vector<TermId>* affected_terms);

  /// Fold the segment + tombstones into the materialized index.
  MergeOutcome merge();

  [[nodiscard]] bool should_merge() const;

  // LiveOverlay
  [[nodiscard]] bool clean() const override { return ops_since_merge_ == 0; }
  [[nodiscard]] std::uint64_t live_doc_slots() const override {
    return all_live_bags_.size() - merged_count_;
  }
  [[nodiscard]] bool is_deleted(DocId d) const override {
    return d.raw() < tombstones_.size() && tombstones_.test(d.raw());
  }
  [[nodiscard]] std::uint64_t live_postings(TermId t) const override {
    return segment_.count(t);
  }
  [[nodiscard]] std::uint64_t deleted_df(TermId t) const override {
    return deleted_df_[t];
  }
  void collect_live(TermId t, std::vector<Posting>& out) const override;

  // Observability (run report "ingest" section).
  [[nodiscard]] const LiveSegment& segment() const { return segment_; }
  [[nodiscard]] std::uint64_t total_ingested() const {
    return all_live_bags_.size();
  }
  [[nodiscard]] std::uint64_t deleted_docs() const {
    return tombstones_.popcount();
  }
  [[nodiscard]] std::uint64_t ops_since_merge() const {
    return ops_since_merge_;
  }

 private:
  MaterializedIndex& index_;
  const MaterializedCorpus& corpus_;
  IngestConfig cfg_;
  LiveSegment segment_;
  /// Every bag ingested since construction — never cleared: tombstoning
  /// an already-merged live doc still needs its term list, and replay
  /// after a merge needs stable ids.
  std::vector<DocBag> all_live_bags_;
  std::uint64_t base0_;         // corpus docs at construction (constant)
  std::uint64_t merged_count_ = 0;  // prefix of all_live_bags_ merged
  Bitmap tombstones_;           // grown lazily, never cleared
  IdVector<TermId, std::uint32_t> deleted_df_;  // per-term, reset at merge
  std::uint64_t ops_since_merge_ = 0;
};

}  // namespace ingest
}  // namespace ssdse
