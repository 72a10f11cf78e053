// Synthetic query-log generation (the AOL-log substitute, DESIGN.md §2).
//
// Distinct queries are ranked by popularity and drawn Zipf-like, which
// yields the two properties the evaluation rests on: a bounded
// result-cache hit ceiling (the singleton tail never repeats) and a
// Zipf-like term access frequency (Fig. 3b). Every distinct query maps
// *deterministically* to its term bag, so repetitions are exact repeats.
#pragma once

#include <cstdint>
#include <vector>

#include "src/engine/query.hpp"
#include "src/util/rng.hpp"
#include "src/util/zipf.hpp"

namespace ssdse {

struct QueryLogConfig {
  /// Number of distinct queries in the universe.
  std::uint64_t distinct_queries = 1'000'000;
  /// Zipf exponent of query popularity (AOL-like ~0.85).
  double query_zipf = 0.85;
  std::uint32_t min_terms = 1;
  std::uint32_t max_terms = 4;
  /// Zipf exponent for drawing terms of a query from the vocabulary.
  double term_zipf = 0.95;
  std::uint32_t vocab_size = 1'000'000;
  /// Session bursts: with this probability the next query repeats one of
  /// the last `burst_window` queries (users paginating / reformulating —
  /// temporal locality beyond the Zipf popularity law). 0 disables.
  double burst_probability = 0.0;
  std::uint32_t burst_window = 64;
  std::uint64_t seed = 7;
};

class QueryLogGenerator {
 public:
  explicit QueryLogGenerator(const QueryLogConfig& cfg);

  /// Next query in the stream (Zipf-sampled distinct query).
  Query next();

  /// The fixed query for a given popularity rank (0 = most popular);
  /// used by log analysis and the CBSLRU static preload.
  Query query_for_rank(std::uint64_t rank) const;

  [[nodiscard]] const QueryLogConfig& config() const { return cfg_; }

 private:
  QueryLogConfig cfg_;
  ZipfSampler query_dist_;
  ZipfSampler term_dist_;  // shared: sample() is const and stateless
  Rng rng_;
  std::vector<std::uint64_t> recent_;  // ring of recent ranks (bursts)
  std::size_t recent_pos_ = 0;
};

}  // namespace ssdse
