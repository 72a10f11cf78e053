// IndexView: the inverted-index abstraction the engine and caches see.
//
// Two implementations (DESIGN.md §2):
//  * AnalyticIndex — per-term statistics only; scales to the paper's
//    5M-document configuration because no postings are materialized.
//  * MaterializedIndex — real frequency-sorted posting lists built from
//    a MaterializedCorpus; used at smaller scale to validate that the
//    cache hierarchy is performance-transparent (same top-K with and
//    without caching) and to *measure* utilization rates instead of
//    modelling them.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/index/corpus.hpp"
#include "src/index/layout.hpp"
#include "src/index/live_view.hpp"
#include "src/index/posting.hpp"

namespace ssdse {

struct TermMeta {
  std::uint64_t df = 0;       // documents containing the term
  Bytes list_bytes = 0;       // on-disk inverted list size
  double utilization = 1.0;   // PU: fraction of the list query processing reads
  /// Precomputed scoring idf, log(1 + N / df); 0 for empty lists. Built
  /// once with the index so the scorer never calls std::log per query.
  double idf = 0.0;
};

class IndexView {
 public:
  virtual ~IndexView() = default;

  [[nodiscard]] virtual std::uint64_t num_docs() const = 0;
  [[nodiscard]] virtual std::uint32_t vocab_size() const = 0;
  virtual TermMeta term_meta(TermId t) const = 0;
  [[nodiscard]] virtual const IndexLayout& layout() const = 0;

  /// Materialized postings, or nullptr for analytic indexes.
  virtual const PostingList* postings(TermId /*t*/) const { return nullptr; }

  /// Hot-path term_meta: both built-in indexes keep their metadata in a
  /// contiguous table registered at construction, so the common case is
  /// an inline bounds-checked array load with no virtual dispatch.
  /// Implementations without a table fall back to the virtual call.
  TermMeta term_meta_fast(TermId t) const {
    if (meta_table_ != nullptr) {
      if (t.raw() >= meta_count_) {
        throw std::out_of_range("IndexView: term id out of range");
      }
      return meta_table_[t.raw()];
    }
    return term_meta(t);
  }

 protected:
  /// Derived classes call this once the table's storage is stable (it
  /// must outlive the index and never reallocate).
  void register_meta_table(const TermMeta* table, std::size_t count) {
    meta_table_ = table;
    meta_count_ = count;
  }

 private:
  const TermMeta* meta_table_ = nullptr;
  std::size_t meta_count_ = 0;
};

class AnalyticIndex final : public IndexView {
 public:
  explicit AnalyticIndex(const CorpusConfig& cfg);

  [[nodiscard]] std::uint64_t num_docs() const override { return model_.num_docs(); }
  [[nodiscard]] std::uint32_t vocab_size() const override { return model_.vocab_size(); }
  TermMeta term_meta(TermId t) const override;
  [[nodiscard]] const IndexLayout& layout() const override { return layout_; }

  [[nodiscard]] const TermStatsModel& model() const { return model_; }

 private:
  TermStatsModel model_;
  IndexLayout layout_;
  // Full TermMeta per term, one contiguous array: term_meta() is on the
  // hot path (scorer + cache manager, several calls per query) and a
  // single-struct read costs one cache miss where gathering df / bytes /
  // pu / idf from four parallel arrays cost up to four.
  IdVector<TermId, TermMeta> metas_;
};

/// A churned term's current postings, merged as they are read: its
/// stored list with tombstoned docs skipped, and its live postings
/// ranked by `by_rank`. Both runs are in PostingList order, so the
/// merge yields exactly what MaterializedIndex::current_postings
/// materializes, and a reader that stops early pays only for the
/// prefix it read. Borrows the stored list, the ranked live postings
/// and the overlay: valid until any of them changes.
class MergedPostings {
 public:
  MergedPostings(std::span<const Posting> stored,
                 std::span<const Posting> live, const LiveOverlay& overlay)
      : stored_(stored), live_(live), overlay_(&overlay) {}

  /// The next posting in rank order, or nullptr past the last one.
  const Posting* next() {
    while (s_ < stored_.size() && overlay_->is_deleted(stored_[s_].doc)) {
      ++s_;
    }
    if (l_ < live_.size() &&
        (s_ == stored_.size() || by_rank(live_[l_], stored_[s_]))) {
      return &live_[l_++];
    }
    return s_ < stored_.size() ? &stored_[s_++] : nullptr;
  }

 private:
  std::span<const Posting> stored_;
  std::span<const Posting> live_;
  const LiveOverlay* overlay_;
  std::size_t s_ = 0;
  std::size_t l_ = 0;
};

class MaterializedIndex final : public IndexView {
 public:
  /// Builds real posting lists; on-disk sizes follow the corpus codec
  /// (actual encoded bytes, not a model).
  explicit MaterializedIndex(const MaterializedCorpus& corpus);

  /// Total document slots: base docs plus live-segment slots. The
  /// overlay keeps deleted docs' slots (empty bags), so N here matches a
  /// rebuild-from-scratch oracle at every point in the churn timeline.
  [[nodiscard]] std::uint64_t num_docs() const override {
    return num_docs_ + (overlay_ != nullptr ? overlay_->live_doc_slots() : 0);
  }
  /// Docs materialized into the stored lists (excludes the live segment).
  [[nodiscard]] std::uint64_t base_docs() const { return num_docs_; }
  [[nodiscard]] std::uint32_t vocab_size() const override {
    return static_cast<std::uint32_t>(lists_.size());
  }
  TermMeta term_meta(TermId t) const override;
  [[nodiscard]] const IndexLayout& layout() const override { return layout_; }
  const PostingList* postings(TermId t) const override { return &lists_[t]; }

  /// Merges folded in so far (rebuild_lists calls). Views built from
  /// the stored lists compare it to know they are still current.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Called by the scorer after processing a list; keeps a running mean
  /// utilization per term (the paper's "computing during the process of
  /// retrieval" option for obtaining PU).
  void record_utilization(TermId t, double pu);

  /// Attach (or detach, with nullptr) the live-ingest overlay. The
  /// overlay must outlive the index or be detached first.
  void attach_overlay(const LiveOverlay* overlay) { overlay_ = overlay; }
  [[nodiscard]] const LiveOverlay* overlay() const { return overlay_; }

  /// Term t's current postings in PostingList order (tf desc, doc asc).
  /// A clean term's are its stored list. A churned term's are the
  /// stored list minus tombstones merged with its live postings, which
  /// are the only ones sorted; they are materialized into `scratch`.
  /// The span lives until `scratch` is reused or the index merges.
  std::span<const Posting> current_postings(
      TermId t, std::vector<Posting>& scratch) const;

  /// current_postings(t), merged lazily as the caller reads it (only a
  /// term the overlay marks dirty needs this). The live postings are
  /// ranked into `live_scratch`, which must outlive the result.
  MergedPostings merged_postings(TermId t,
                                 std::vector<Posting>& live_scratch) const;

  /// Term t's effective df, the length of current_postings(t), from the
  /// overlay's counters instead of a scan: the stored df plus the live
  /// postings minus the tombstoned docs holding t.
  [[nodiscard]] std::uint64_t current_df(TermId t) const;

  /// Fold a merge into the materialized state: `replacements` holds the
  /// current postings (as current_postings returns them) of every
  /// churned term, TermId ascending. Installs those lists as they are,
  /// refreshes their metas (df, encoded bytes) and every term's idf for
  /// `new_num_docs`, and rebuilds the layout, so the result is
  /// bit-identical to an index constructed from the equivalent corpus.
  /// Rebuilt terms restart PU tracking at the optimistic 1.0 default.
  void rebuild_lists(
      std::uint64_t new_num_docs,
      std::vector<std::pair<TermId, std::vector<Posting>>> replacements);

 private:
  std::uint64_t num_docs_;
  std::string codec_name_;  // kept for merge-time re-encoding
  std::uint64_t generation_ = 0;
  const LiveOverlay* overlay_ = nullptr;
  IdVector<TermId, PostingList> lists_;
  IndexLayout layout_;
  // Contiguous TermMeta table (df, encoded bytes, running-mean PU, idf)
  // backing term_meta_fast(); record_utilization keeps the utilization
  // field in step with pu_mean_.
  IdVector<TermId, TermMeta> metas_;
  IdVector<TermId, float> pu_mean_;
  IdVector<TermId, std::uint32_t> pu_samples_;
};

}  // namespace ssdse
