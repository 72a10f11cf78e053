#include "src/workload/query_log.hpp"

#include <algorithm>

namespace ssdse {

QueryLogGenerator::QueryLogGenerator(const QueryLogConfig& cfg)
    : cfg_(cfg),
      query_dist_(cfg.distinct_queries, cfg.query_zipf),
      term_dist_(cfg.vocab_size, cfg.term_zipf),
      rng_(cfg.seed) {}

Query QueryLogGenerator::query_for_rank(std::uint64_t rank) const {
  // Deterministic construction: the query's private RNG stream is a
  // function of (rank, seed) only, so the same distinct query always has
  // the same terms — the identity the result cache keys on.
  Rng qrng(rank * 0x2545F4914F6CDD1Dull + cfg_.seed);
  Query q;
  q.id = QueryId{rank};
  const std::uint32_t span = cfg_.max_terms - cfg_.min_terms + 1;
  const auto nterms = cfg_.min_terms +
                      static_cast<std::uint32_t>(qrng.next_below(span));
  q.terms.reserve(nterms);
  for (std::uint32_t i = 0; i < nterms; ++i) {
    const auto t = static_cast<TermId>(term_dist_.sample(qrng) - 1);
    if (std::find(q.terms.begin(), q.terms.end(), t) == q.terms.end()) {
      q.terms.push_back(t);
    }
  }
  return q;
}

Query QueryLogGenerator::next() {
  std::uint64_t rank;
  if (cfg_.burst_probability > 0 && !recent_.empty() &&
      rng_.chance(cfg_.burst_probability)) {
    // Session burst: repeat a recent query.
    rank = recent_[rng_.next_below(recent_.size())];
  } else {
    rank = query_dist_.sample(rng_) - 1;
  }
  if (cfg_.burst_probability > 0 && cfg_.burst_window > 0) {
    if (recent_.size() < cfg_.burst_window) {
      recent_.push_back(rank);
    } else {
      recent_[recent_pos_] = rank;
      recent_pos_ = (recent_pos_ + 1) % recent_.size();
    }
  }
  return query_for_rank(rank);
}

}  // namespace ssdse
