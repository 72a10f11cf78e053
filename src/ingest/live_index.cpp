#include "src/ingest/live_index.hpp"

#include <algorithm>
#include <span>

namespace ssdse::ingest {

LiveIndex::LiveIndex(MaterializedIndex& index,
                     const MaterializedCorpus& corpus,
                     const IngestConfig& cfg)
    : index_(index),
      corpus_(corpus),
      cfg_(cfg),
      segment_(index.vocab_size(), cfg.segment_block_size),
      base0_(corpus.num_docs()),
      deleted_df_(index.vocab_size(), 0) {}

DocId LiveIndex::ingest(DocBag bag) {
  const DocId id{static_cast<std::uint32_t>(base0_ + all_live_bags_.size())};
  for (const auto& [term, tf] : bag) {
    segment_.append(term, Posting{id, tf});
  }
  all_live_bags_.push_back(std::move(bag));
  ++ops_since_merge_;
  return id;
}

bool LiveIndex::erase(DocId d, std::vector<TermId>* affected_terms) {
  if (d.raw() >= base0_ + all_live_bags_.size()) return false;
  if (is_deleted(d)) return false;
  if (tombstones_.size() <= d.raw()) tombstones_.resize(d.raw() + 1);
  tombstones_.set(d.raw());
  const DocBag& bag =
      d.raw() < base0_ ? corpus_.doc(d)
                       : all_live_bags_[d.raw() - base0_];
  for (const auto& [term, tf] : bag) {
    (void)tf;
    // Marks the term dirty even when its tombstoned postings still sit
    // in the segment (harmless: term_dirty was already true) — what
    // matters is covering postings already merged into the base lists.
    ++deleted_df_[term];
    if (affected_terms != nullptr) affected_terms->push_back(term);
  }
  ++ops_since_merge_;
  return true;
}

void LiveIndex::collect_live(TermId t, std::vector<Posting>& out) const {
  const std::size_t start = out.size();
  segment_.collect(t, out);
  // Drop postings of live docs tombstoned before this merge window
  // closed; the survivors keep their doc-ascending order.
  out.erase(std::remove_if(out.begin() + static_cast<std::ptrdiff_t>(start),
                           out.end(),
                           [this](const Posting& p) {
                             return is_deleted(p.doc);
                           }),
            out.end());
}

bool LiveIndex::should_merge() const {
  if (cfg_.merge_segment_postings > 0 &&
      segment_.total_postings() >= cfg_.merge_segment_postings) {
    return true;
  }
  return cfg_.merge_segment_ops > 0 &&
         ops_since_merge_ >= cfg_.merge_segment_ops;
}

MergeOutcome LiveIndex::merge() {
  MergeOutcome out;
  if (clean()) return out;
  std::vector<std::pair<TermId, std::vector<Posting>>> replacements;
  std::vector<Posting> scratch;
  for (TermId t{}; t.raw() < index_.vocab_size(); ++t) {
    if (!term_dirty(t)) continue;
    // current_postings consults this overlay: base postings minus
    // tombstones merged with the surviving segment postings, already
    // in the order the new list keeps.
    const std::span<const Posting> current =
        index_.current_postings(t, scratch);
    out.postings_rewritten += current.size();
    replacements.emplace_back(
        t, std::vector<Posting>(current.begin(), current.end()));
  }
  out.terms_rebuilt = replacements.size();
  index_.rebuild_lists(base0_ + all_live_bags_.size(),
                       std::move(replacements));
  merged_count_ = all_live_bags_.size();
  segment_.clear();
  std::fill(deleted_df_.begin(), deleted_df_.end(), 0);
  ops_since_merge_ = 0;
  return out;
}

}  // namespace ssdse::ingest
