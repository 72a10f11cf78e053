#include "src/index/inverted_index.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/index/codec.hpp"

namespace ssdse {

namespace {

IndexLayout layout_from_sizes(std::vector<Bytes> sizes) {
  return IndexLayout(sizes);
}

/// TermMeta::list_bytes of a frequency-sorted list, at least 1. The
/// classic codecs encode the list as it is; a block codec stores it in
/// doc order (put into `by_doc`).
Bytes list_bytes(CodecKind kind, const PostingCodec& codec,
                 std::span<const Posting> ranked,
                 std::vector<Posting>& by_doc) {
  if (ranked.empty()) return 1;
  if (!is_block_codec(kind)) {
    return std::max<Bytes>(codec.encoded_bytes(ranked), 1);
  }
  to_doc_order(ranked, by_doc);
  return std::max<Bytes>(block_slice_bytes(kind, by_doc), 1);
}

}  // namespace

AnalyticIndex::AnalyticIndex(const CorpusConfig& cfg) : model_(cfg) {
  std::vector<Bytes> sizes(model_.vocab_size());
  metas_.resize(model_.vocab_size());
  const double n_docs = static_cast<double>(model_.num_docs());
  for (TermId t{}; t.raw() < model_.vocab_size(); ++t) {
    sizes[t.raw()] = model_.list_bytes(t);
    const auto df = model_.df(t);
    metas_[t] = TermMeta{
        df, model_.list_bytes(t), model_.utilization(t),
        df ? std::log(1.0 + n_docs / static_cast<double>(df)) : 0.0};
  }
  layout_ = layout_from_sizes(std::move(sizes));
  register_meta_table(metas_.data(), metas_.size());
}

TermMeta AnalyticIndex::term_meta(TermId t) const {
  if (!metas_.contains(t)) {
    throw std::out_of_range("AnalyticIndex: term id out of range");
  }
  return metas_[t];
}

MaterializedIndex::MaterializedIndex(const MaterializedCorpus& corpus)
    : num_docs_(corpus.num_docs()), codec_name_(corpus.config().codec) {
  IdVector<TermId, std::vector<Posting>> raw(corpus.vocab_size());
  for (DocId d{}; d.raw() < corpus.num_docs(); ++d) {
    for (const auto& [term, tf] : corpus.doc(d)) {
      raw[term].push_back(Posting{d, tf});
    }
  }
  const CodecKind kind = codec_kind(codec_name_);
  const auto codec = make_codec(codec_name_);
  lists_.reserve(raw.size());
  metas_.reserve(raw.size());
  std::vector<Bytes> sizes;
  sizes.reserve(raw.size());
  const double n_docs = static_cast<double>(num_docs_);
  std::vector<Posting> by_doc;
  for (auto& postings : raw) {
    const PostingList& list = lists_.emplace_back(std::move(postings));
    const double scoring_idf =
        list.empty()
            ? 0.0
            : std::log(1.0 + n_docs / static_cast<double>(list.size()));
    metas_.push_back(
        TermMeta{list.size(), list_bytes(kind, *codec, list.postings(), by_doc),
                 /*utilization=*/1.0, scoring_idf});
    sizes.push_back(metas_.back().list_bytes);
  }
  layout_ = layout_from_sizes(std::move(sizes));
  pu_mean_.assign(lists_.size(), 1.0f);
  pu_samples_.assign(lists_.size(), 0);
  register_meta_table(metas_.data(), metas_.size());
}

TermMeta MaterializedIndex::term_meta(TermId t) const {
  if (!lists_.contains(t)) {
    throw std::out_of_range("MaterializedIndex: term id out of range");
  }
  return metas_[t];
}

std::span<const Posting> MaterializedIndex::current_postings(
    TermId t, std::vector<Posting>& scratch) const {
  if (!lists_.contains(t)) {
    throw std::out_of_range("MaterializedIndex: term id out of range");
  }
  const std::span<const Posting> stored = lists_[t].postings();
  if (overlay_ == nullptr || !overlay_->term_dirty(t)) return stored;
  scratch.clear();
  for (const Posting& p : stored) {
    if (!overlay_->is_deleted(p.doc)) scratch.push_back(p);
  }
  // The survivors are still in rank order; ranking the live postings
  // the same way lets one merge stand in for a full re-sort.
  const auto survivors = static_cast<std::ptrdiff_t>(scratch.size());
  overlay_->collect_live(t, scratch);
  std::sort(scratch.begin() + survivors, scratch.end(), by_rank);
  std::inplace_merge(scratch.begin(), scratch.begin() + survivors,
                     scratch.end(), by_rank);
  return scratch;
}

MergedPostings MaterializedIndex::merged_postings(
    TermId t, std::vector<Posting>& live_scratch) const {
  if (!lists_.contains(t)) {
    throw std::out_of_range("MaterializedIndex: term id out of range");
  }
  if (overlay_ == nullptr) {
    throw std::logic_error("MaterializedIndex: no overlay to merge");
  }
  live_scratch.clear();
  overlay_->collect_live(t, live_scratch);
  std::sort(live_scratch.begin(), live_scratch.end(), by_rank);
  return MergedPostings(lists_[t].postings(), live_scratch, *overlay_);
}

std::uint64_t MaterializedIndex::current_df(TermId t) const {
  if (!lists_.contains(t)) {
    throw std::out_of_range("MaterializedIndex: term id out of range");
  }
  const std::uint64_t stored = lists_[t].size();
  if (overlay_ == nullptr) return stored;
  return stored + overlay_->live_postings(t) - overlay_->deleted_df(t);
}

void MaterializedIndex::rebuild_lists(
    std::uint64_t new_num_docs,
    std::vector<std::pair<TermId, std::vector<Posting>>> replacements) {
  const double n_docs = static_cast<double>(new_num_docs);
  const CodecKind kind = codec_kind(codec_name_);
  const auto codec = make_codec(codec_name_);
  // Lists and metas are patched in place: metas_ never reallocates,
  // keeping the registered meta table valid.
  std::vector<Posting> by_doc;
  for (auto& [t, postings] : replacements) {
    lists_[t] = PostingList(std::move(postings));  // in order: no sort
    metas_[t].df = lists_[t].size();
    metas_[t].list_bytes =
        list_bytes(kind, *codec, lists_[t].postings(), by_doc);
    metas_[t].utilization = 1.0;
    pu_mean_[t] = 1.0f;
    pu_samples_[t] = 0;
  }
  // N changed for everyone: refresh the scoring idf of every term.
  std::vector<Bytes> sizes(lists_.size());
  for (TermId t{}; t.raw() < lists_.size(); ++t) {
    metas_[t].idf =
        metas_[t].df == 0
            ? 0.0
            : std::log(1.0 + n_docs / static_cast<double>(metas_[t].df));
    sizes[t.raw()] = metas_[t].list_bytes;
  }
  num_docs_ = new_num_docs;
  ++generation_;
  layout_ = layout_from_sizes(std::move(sizes));
}

void MaterializedIndex::record_utilization(TermId t, double pu) {
  if (!lists_.contains(t)) {
    throw std::out_of_range("MaterializedIndex: term id out of range");
  }
  const auto n = ++pu_samples_[t];
  // Running mean; first sample replaces the optimistic 1.0 default.
  // Accumulated in float (as the pre-table implementation did), then
  // mirrored into the meta table the hot path reads.
  if (n == 1) {
    pu_mean_[t] = static_cast<float>(pu);
  } else {
    pu_mean_[t] += (static_cast<float>(pu) - pu_mean_[t]) /
                   static_cast<float>(n);
  }
  metas_[t].utilization = static_cast<double>(pu_mean_[t]);
}

}  // namespace ssdse
