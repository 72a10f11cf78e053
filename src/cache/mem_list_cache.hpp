// L1 inverted-list cache ("L1 IC"): variable-length entries in DRAM.
//
// Two modes (paper §VI):
//  * LRU baseline — whole lists cached, plain LRU victim;
//  * CBLRU/CBSLRU — only the *used prefix* is cached (utilization-sized),
//    and the victim is the minimum-efficiency-value entry inside the
//    Replace-First Region at the LRU end (Fig. 12).
#pragma once

#include <cstdint>
#include <vector>

#include "src/cache/policy.hpp"
#include "src/util/flat_lru_map.hpp"

namespace ssdse {

struct CachedList {
  Bytes cached_bytes = 0;  // prefix bytes resident in memory
  Bytes full_bytes = 0;    // SI: size of the whole inverted list
  double utilization = 1;  // PU
  std::uint64_t freq = 1;  // accesses since admission
  std::uint32_t sc_blocks = 1;  // Formula 1 (for EV)
  double ev = 0;                // Formula 2
  /// Logical time the data was last read from the index store (TTL
  /// freshness anchor, paper §IV.B); 0 in the static scenario.
  std::uint64_t born = 0;
};

struct EvictedList {
  TermId term{};
  CachedList info;
};

class MemListCache {
 public:
  MemListCache(Bytes capacity, CachePolicy policy,
               std::uint32_t replace_window);

  /// Hit iff the cached prefix covers `needed_bytes`. Bumps recency,
  /// frequency and EV.
  const CachedList* lookup(TermId term, Bytes needed_bytes);

  /// Insert/refresh an entry; returns evictions (for SSD consideration).
  std::vector<EvictedList> insert(TermId term, CachedList info);

  /// Drop an entry (TTL expiry). Returns true if it was present.
  bool erase(TermId term);

  bool contains(TermId term) const { return map_.contains(term); }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] Bytes used_bytes() const { return used_; }
  [[nodiscard]] Bytes capacity() const { return capacity_; }

 private:
  /// Pick and remove one victim according to the policy. Returns false
  /// if the cache is empty.
  bool evict_one(std::vector<EvictedList>& out);

  Bytes capacity_;
  CachePolicy policy_;
  std::uint32_t window_;
  Bytes used_ = 0;
  FlatLruMap<TermId, CachedList> map_;
};

}  // namespace ssdse
