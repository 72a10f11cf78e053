// Baseline L2 caches under plain LRU (paper's comparison point).
//
// No write buffer, no block states, no admission filter: evicted entries
// are written to the SSD immediately at entry granularity —
//  * results: 20 KiB (10-page) slots packed back to back, so writes
//    straddle flash-block boundaries and leave partial invalidations;
//  * lists: whole lists at page granularity through a first-fit run
//    allocator, so long-running churn scatters small writes across the
//    region (the fragmentation the paper blames for LRU's erase count).
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/cache/mem_result_cache.hpp"
#include "src/cache/policy.hpp"
#include "src/ssd/ssd.hpp"
#include "src/util/flat_lru_map.hpp"

namespace ssdse {

struct LruSsdStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected_too_large = 0;
  std::uint64_t read_errors = 0;  // uncorrectable flash reads -> miss
};

class LruSsdResultCache {
 public:
  /// Region: logical pages [base, base + pages) on `ssd`.
  LruSsdResultCache(Ssd& ssd, Lpn base, std::uint64_t pages);

  /// `io_status` (optional) receives the flash read's status; on
  /// kUncorrectable the entry is dropped and nullptr returned (miss).
  /// A hit is valid until the next insert or erase on this cache.
  const ResultEntry* lookup(QueryId qid, std::uint64_t& freq_out,
                            Micros& time, std::uint64_t* born_out = nullptr,
                            IoStatus* io_status = nullptr);
  /// Insert one evicted entry; writes immediately. Returns flash time.
  [[nodiscard]] Micros insert(CachedResult entry);
  /// TTL expiry: drop the entry, freeing its slot.
  bool erase(QueryId qid);

  bool contains(QueryId qid) const { return map_.contains(qid); }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] const LruSsdStats& stats() const { return stats_; }

 private:
  struct Slot {
    CachedResult cached;
    std::uint32_t slot = 0;
  };

  Ssd& ssd_;
  Lpn base_;
  std::uint32_t pages_per_slot_;
  std::uint32_t num_slots_;
  std::vector<std::uint32_t> free_slots_;
  FlatLruMap<QueryId, Slot> map_;
  LruSsdStats stats_;
};

/// First-fit page-run allocator (baseline list cache backing store).
class PageRunAllocator {
 public:
  PageRunAllocator(Lpn base, std::uint64_t pages);

  /// Gather `n` pages as (start, len) runs; non-contiguous allowed —
  /// exactly how a fragmented cache file scatters writes. Returns false
  /// (allocating nothing) if fewer than n pages are free.
  bool alloc(std::uint64_t n, std::vector<std::pair<Lpn, std::uint64_t>>& out);
  void free(Lpn start, std::uint64_t len);

  [[nodiscard]] std::uint64_t free_pages() const { return free_pages_; }
  [[nodiscard]] std::uint64_t total_pages() const { return total_pages_; }
  /// Number of separate free runs (fragmentation gauge).
  [[nodiscard]] std::size_t fragments() const { return runs_.size(); }

 private:
  std::map<Lpn, std::uint64_t> runs_;  // start -> length, disjoint, sorted
  std::uint64_t free_pages_;
  std::uint64_t total_pages_;
};

class LruSsdListCache {
 public:
  struct Entry {
    std::vector<std::pair<Lpn, std::uint64_t>> runs;
    Bytes bytes = 0;
    std::uint64_t pages = 0;
    std::uint64_t freq = 0;
    std::uint64_t born = 0;  // TTL freshness anchor
  };

  LruSsdListCache(Ssd& ssd, Lpn base, std::uint64_t pages);

  /// Hit iff the cached prefix covers `needed_bytes` (the engine caches
  /// whatever it fetched; early termination bounds that for every
  /// policy). Reads the needed pages on a hit. `io_status` (optional)
  /// receives the read status; kUncorrectable drops the entry -> miss.
  /// A hit is valid until the next insert or erase on this cache.
  const Entry* lookup(TermId term, Bytes needed_bytes, Micros& time,
                      IoStatus* io_status = nullptr);

  /// Insert a list prefix of `bytes`; evicts LRU entries until it fits.
  [[nodiscard]] Micros insert(TermId term, Bytes bytes, std::uint64_t freq,
                std::uint64_t born = 0);
  /// TTL expiry: drop the entry, freeing its pages.
  bool erase(TermId term);

  bool contains(TermId term) const { return map_.contains(term); }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] const LruSsdStats& stats() const { return stats_; }
  [[nodiscard]] const PageRunAllocator& allocator() const { return alloc_; }

 private:
  void evict_lru();

  Ssd& ssd_;
  Bytes page_bytes_;
  PageRunAllocator alloc_;
  FlatLruMap<TermId, Entry> map_;
  LruSsdStats stats_;
};

}  // namespace ssdse
