// L1 result cache ("L1 RC"): fixed-length 20 KiB entries in DRAM,
// LRU-ordered (paper §VI.C.1 — result entries are small and uniform, so
// plain LRU recency is the right L1 policy for every configuration).
#pragma once

#include <cstdint>
#include <vector>

#include "src/engine/result.hpp"
#include "src/util/flat_lru_map.hpp"

namespace ssdse {

struct CachedResult {
  ResultEntry entry;
  std::uint64_t freq = 1;  // accesses since admission (Fig. 6a "freq")
  /// Logical birth time (query sequence number) for the TTL-based
  /// dynamic scenario of paper §IV.B; 0 in the static scenario.
  std::uint64_t born = 0;
};

/// Outcome of MemResultCache::insert. `handle` points at the cached
/// copy and stays valid until the next insert or erase on this cache
/// (FlatLruMap lifetime rule), so callers can serve a hit without a
/// second hash probe. When the cache cannot hold even one entry
/// (capacity below kResultEntryBytes), the inserted entry itself lands
/// in `evicted` and `handle` is null.
struct MemInsert {
  CachedResult* handle = nullptr;
  std::vector<CachedResult> evicted;
};

class MemResultCache {
 public:
  explicit MemResultCache(Bytes capacity);

  /// Hit: bumps recency + frequency and returns the entry (valid until
  /// the next insert or erase on this cache).
  const CachedResult* lookup(QueryId qid);

  /// Insert a fresh entry (or refresh an existing one). Entries evicted
  /// to make room are returned for the manager to consider for SSD,
  /// alongside a handle to the admitted copy (see MemInsert).
  MemInsert insert(ResultEntry entry, std::uint64_t freq = 1,
                   std::uint64_t born = 0);

  /// Drop an entry (TTL expiry). Returns true if it was present.
  bool erase(QueryId qid) { return map_.erase(qid).has_value(); }

  bool contains(QueryId qid) const { return map_.contains(qid); }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] Bytes used_bytes() const { return map_.size() * kResultEntryBytes; }
  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }

 private:
  Bytes capacity_;
  std::size_t max_entries_;
  FlatLruMap<QueryId, CachedResult> map_;
};

}  // namespace ssdse
