// Intersection cache — the third cache level of Long & Suel (WWW'05)
// that the paper names as future work (§VIII: "results, inverted lists
// and intersections").
//
// For a pair of terms (a, b) appearing together in queries, the
// projected posting intersection is far smaller than either list; a
// cached intersection answers the pair's contribution to scoring without
// fetching *either* inverted list. Entries live in memory and are sized
// by a pairwise-overlap model (|I(a,b)| ~= overlap x min(df_a, df_b)).
#pragma once

#include <cstdint>
#include <utility>

#include "src/util/flat_lru_map.hpp"
#include "src/util/types.hpp"

namespace ssdse {

struct IntersectionCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
};

struct CachedIntersection {
  Bytes bytes = 0;          // projected intersection size
  std::uint64_t freq = 1;
};

class IntersectionCache {
 public:
  explicit IntersectionCache(Bytes capacity);

  /// Canonical unordered pair key.
  static std::uint64_t key(TermId a, TermId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a.raw()) << 32) | b.raw();
  }

  /// Hit returns the cached intersection (freq bumped, MRU promoted).
  const CachedIntersection* lookup(TermId a, TermId b);

  /// Admit an intersection of `bytes`; LRU-evicts until it fits.
  void insert(TermId a, TermId b, Bytes bytes);

  bool contains(TermId a, TermId b) const {
    return map_.contains(key(a, b));
  }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] Bytes used_bytes() const { return used_; }
  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] const IntersectionCacheStats& stats() const { return stats_; }

 private:
  Bytes capacity_;
  Bytes used_ = 0;
  FlatLruMap<std::uint64_t, CachedIntersection> map_;
  IntersectionCacheStats stats_;
};

}  // namespace ssdse
