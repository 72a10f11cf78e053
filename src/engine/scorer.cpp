#include "src/engine/scorer.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_map>

#include "src/engine/top_k.hpp"

namespace ssdse {

namespace {

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

ScoreOutcome Scorer::score_materialized(MaterializedIndex& index,
                                        const Query& query) const {
  ScoreOutcome out;
  out.result.query = query.id;
  out.terms.reserve(query.terms.size());
  std::unordered_map<DocId, float> acc;

  // Live-index churn: dirty terms read their current postings, merged
  // in rank order by the index, and every term's idf is recomputed
  // against the current N (the stored TermMeta::idf predates the live
  // doc slots). With a clean (or absent) overlay this block is inert
  // and the function is bit-identical to the read-only build.
  const LiveOverlay* overlay = index.overlay();
  const bool churned = overlay != nullptr && !overlay->clean();
  const double n_docs =
      churned ? static_cast<double>(index.num_docs()) : 0.0;
  std::vector<Posting> scratch;

  for (TermId t : query.terms) {
    const std::span<const Posting> list = index.current_postings(t, scratch);
    TermScoreInfo info{t, 0, 1.0};
    if (!list.empty()) {
      // idf precomputed at index build (TermMeta::idf) — no per-query
      // std::log for list weighting.
      const double idf =
          churned
              ? std::log(1.0 + n_docs / static_cast<double>(list.size()))
              : index.term_meta_fast(t).idf;
      const auto tf_top = list[0].tf;
      const auto tf_floor = static_cast<std::uint32_t>(
          std::ceil(cfg_.tf_cutoff * static_cast<double>(tf_top)));
      const auto needed_candidates = static_cast<std::size_t>(
          cfg_.candidate_multiple * static_cast<double>(cfg_.top_k));
      std::size_t i = 0;
      for (; i < list.size(); ++i) {
        const Posting& p = list[i];
        // Early termination: low-tf tail cannot displace the top-K once
        // enough candidates are accumulated.
        if (p.tf < tf_floor && acc.size() >= needed_candidates) break;
        acc[p.doc] +=
            static_cast<float>(std::log(1.0 + p.tf) * idf);
      }
      info.postings_processed = i;
      info.utilization =
          static_cast<double>(i) / static_cast<double>(list.size());
      index.record_utilization(t, info.utilization);
    } else {
      info.postings_processed = 0;
      info.utilization = 1.0;
    }
    out.total_postings += info.postings_processed;
    out.terms.push_back(info);
  }

  // Extract the top-K through a bounded heap: O(n log k), no
  // intermediate full-size vector. The ranking order is total (ties
  // break on doc id), so this selects exactly what partial_sort did.
  TopKAccumulator top_docs(cfg_.top_k);
  // ssdse-lint: allow(unordered-iter) TopKAccumulator imposes a total order (ties break on doc id), so visit order is irrelevant
  for (const auto& [doc, s] : acc) top_docs.push(ScoredDoc{doc, s});
  out.result.docs = top_docs.take_sorted();
  out.cpu_time = cfg_.cpu_fixed +
                 cfg_.cpu_per_posting * static_cast<double>(out.total_postings);
  return out;
}

ScoreOutcome Scorer::score_analytic(const IndexView& index,
                                    const Query& query) const {
  ScoreOutcome out;
  out.result.query = query.id;
  out.terms.reserve(query.terms.size());
  for (TermId t : query.terms) {
    const TermMeta meta = index.term_meta_fast(t);
    const auto processed = static_cast<std::uint64_t>(
        std::ceil(meta.utilization * static_cast<double>(meta.df)));
    out.terms.push_back(TermScoreInfo{t, processed, meta.utilization});
    out.total_postings += processed;
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
