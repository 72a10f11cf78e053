#include "src/engine/scorer.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/engine/top_k.hpp"

namespace ssdse {

namespace {

/// Accumulator slot of a doc no posting of the current query reached.
constexpr float kUntouched = -1.0f;

/// Deterministic pseudo-doc for analytic top-K synthesis.
DocId synth_doc(QueryId q, std::size_t i, std::uint64_t num_docs) {
  std::uint64_t x = q.raw() * 0x9E3779B97F4A7C15ull + i * 0xBF58476D1CE4E5B9ull;
  x ^= x >> 31;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 29;
  return static_cast<DocId>(x % num_docs);
}

}  // namespace

ScoreOutcome Scorer::score(IndexView& index, const Query& query) const {
  if (auto* mat = dynamic_cast<MaterializedIndex*>(&index)) {
    return score_materialized(*mat, query);
  }
  return score_analytic(index, query);
}

template <class Next>
std::uint64_t Scorer::accumulate(Next next, double idf) const {
  const Posting* p = next();
  if (p == nullptr) return 0;
  const auto tf_floor = static_cast<std::uint32_t>(
      std::ceil(cfg_.tf_cutoff * static_cast<double>(p->tf)));
  const auto needed_candidates = static_cast<std::size_t>(
      cfg_.candidate_multiple * static_cast<double>(cfg_.top_k));
  std::uint64_t read = 0;
  for (; p != nullptr; p = next(), ++read) {
    // Early termination: low-tf tail cannot displace the top-K once
    // enough candidates are accumulated.
    if (p->tf < tf_floor && touched_.size() >= needed_candidates) break;
    const auto w = static_cast<float>(std::log(1.0 + p->tf) * idf);
    float& slot = acc_[p->doc.raw()];
    // Weights are never negative, so a first touch storing `w` equals
    // adding it to a zeroed slot.
    if (slot == kUntouched) {
      slot = w;
      touched_.push_back(p->doc);
    } else {
      slot += w;
    }
  }
  return read;
}

ScoreOutcome Scorer::score_materialized(MaterializedIndex& index,
                                        const Query& query) const {
  ScoreOutcome out;
  out.result.query = query.id;
  if (acc_.size() < index.num_docs()) {
    acc_.resize(index.num_docs(), kUntouched);
  }

  // Live-index churn: dirty terms merge their stored list (minus
  // tombstones) with their ranked live postings as the walk reads them,
  // and every term's idf is recomputed against the current N and the
  // overlay's df (the stored TermMeta::idf predates the live doc
  // slots). With a clean (or absent) overlay this block is inert and
  // the function is bit-identical to the read-only build.
  const LiveOverlay* overlay = index.overlay();
  const bool churned = overlay != nullptr && !overlay->clean();
  const double n_docs =
      churned ? static_cast<double>(index.num_docs()) : 0.0;

  for (TermId t : query.terms) {
    // Also the term's range check: the lookups below index unchecked.
    const double stored_idf = index.term_meta_fast(t).idf;
    std::uint64_t processed = 0;
    std::uint64_t df = 0;
    if (churned && overlay->term_dirty(t)) {
      df = index.current_df(t);
      if (df > 0) {
        MergedPostings merged = index.merged_postings(t, live_scratch_);
        processed = accumulate(
            [&merged] { return merged.next(); },
            std::log(1.0 + n_docs / static_cast<double>(df)));
      }
    } else {
      const std::span<const Posting> list = index.postings(t)->postings();
      df = list.size();
      if (df > 0) {
        // idf precomputed at index build (TermMeta::idf) — no per-query
        // std::log for list weighting.
        const double idf =
            churned ? std::log(1.0 + n_docs / static_cast<double>(df))
                    : stored_idf;
        std::size_t i = 0;
        processed = accumulate(
            [&list, &i] { return i < list.size() ? &list[i++] : nullptr; },
            idf);
      }
    }
    if (df > 0) {
      index.record_utilization(
          t, static_cast<double>(processed) / static_cast<double>(df));
    }
    out.total_postings += processed;
  }

  // Extract the top-K through a bounded heap: O(n log k), no
  // intermediate full-size vector. The ranking order is total (ties
  // break on doc id), so this selects exactly what partial_sort did;
  // reading a slot also resets it for the next query.
  TopKAccumulator top_docs(cfg_.top_k);
  top_docs.reserve(touched_.size());
  for (const DocId d : touched_) {
    float& slot = acc_[d.raw()];
    top_docs.push(ScoredDoc{d, slot});
    slot = kUntouched;
  }
  touched_.clear();
  out.result.docs = top_docs.take_sorted();
  out.cpu_time = cfg_.cpu_fixed +
                 cfg_.cpu_per_posting * static_cast<double>(out.total_postings);
  return out;
}

ScoreOutcome Scorer::score_analytic(const IndexView& index,
                                    const Query& query) const {
  ScoreOutcome out;
  out.result.query = query.id;
  for (TermId t : query.terms) {
    const TermMeta meta = index.term_meta_fast(t);
    out.total_postings += static_cast<std::uint64_t>(
        std::ceil(meta.utilization * static_cast<double>(meta.df)));
  }
  const std::uint64_t num_docs = index.num_docs();
  const std::size_t k = std::min<std::uint64_t>(cfg_.top_k, num_docs);
  out.result.docs.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.result.docs.push_back(ScoredDoc{synth_doc(query.id, i, num_docs),
                                        static_cast<float>(k - i)});
  }
  out.cpu_time = cfg_.cpu_fixed +
                 cfg_.cpu_per_posting * static_cast<double>(out.total_postings);
  return out;
}

}  // namespace ssdse
