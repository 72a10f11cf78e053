// Filtered-vector-model scoring with early termination (paper §VI,
// after Saraiva et al. SIGIR'01).
//
// Lists are frequency-sorted, so the scorer walks a prefix of each list
// and stops once further postings cannot change the top-K — "lists are
// almost always partially processed". The fraction actually walked *is*
// the utilization rate PU that drives partial-list caching (Formula 1).
//
// Two paths:
//  * materialized — real postings, real top-K, measured PU;
//  * analytic — postings_processed = PU × df from the statistical model,
//    synthetic (deterministic) top-K docs for cache-identity purposes.
#pragma once

#include <vector>

#include "src/engine/query.hpp"
#include "src/engine/result.hpp"
#include "src/index/inverted_index.hpp"

namespace ssdse {

struct ScorerConfig {
  std::size_t top_k = kTopK;
  /// Early termination: stop a list once its tf falls below this
  /// fraction of the list's max tf AND we already hold enough candidates.
  double tf_cutoff = 0.40;
  /// Candidate multiple required before termination can trigger.
  double candidate_multiple = 3.0;
  /// CPU cost per posting processed (ranking arithmetic + accumulator).
  Micros cpu_per_posting = micros(0.008);  // 8 ns
  /// Fixed per-query CPU overhead (parse, rank merge, snippets).
  Micros cpu_fixed = micros(300.0);
};

struct ScoreOutcome {
  ResultEntry result;
  Micros cpu_time = micros(0);
  std::uint64_t total_postings = 0;
};

class Scorer {
 public:
  explicit Scorer(const ScorerConfig& cfg = {}) : cfg_(cfg) {}

  /// Score a query. For MaterializedIndex, also records measured
  /// utilizations back into the index (via record_utilization).
  /// Reuses this scorer's accumulator: one Scorer serves one thread.
  ScoreOutcome score(IndexView& index, const Query& query) const;

  [[nodiscard]] const ScorerConfig& config() const { return cfg_; }

 private:
  ScoreOutcome score_materialized(MaterializedIndex& index,
                                  const Query& query) const;
  ScoreOutcome score_analytic(const IndexView& index,
                              const Query& query) const;
  /// Walk one list in rank order until early termination, adding each
  /// posting's weight into the accumulator; returns the postings read.
  /// `next()` yields the list's postings one at a time, nullptr at the
  /// end.
  template <class Next>
  std::uint64_t accumulate(Next next, double idf) const;

  ScorerConfig cfg_;
  // Term-at-a-time accumulator, one slot per doc id, reused across
  // queries: a slot holds kUntouched until a posting of the current
  // query reaches it, and `touched_` lists those docs so only they are
  // read out and reset. Grown when a live index adds doc slots.
  mutable std::vector<float> acc_;
  mutable std::vector<DocId> touched_;
  mutable std::vector<Posting> live_scratch_;  // a dirty term's live postings
};

}  // namespace ssdse
