// L2 inverted-list cache ("L2 IC") under CBLRU/CBSLRU (paper §VI.C.2).
//
// Entries are partial lists sized by Formula 1 (SC whole cache blocks).
// Replacement follows Fig. 13's cascade inside the Replace-First Region
// (window W at the LRU end):
//   1. overwrite replaceable-state entries first;
//   2. else an entry of exactly the needed size;
//   3. else assemble several smaller entries;
//   4. worst case, search the whole LRU list.
// Evicting a bigger entry than needed releases the excess blocks via
// TRIM (the paper's cold-data deletion).
//
// CBSLRU pins a static partition preloaded from log analysis.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/cache/cache_image.hpp"
#include "src/cache/policy.hpp"
#include "src/cache/ssd_cache_file.hpp"
#include "src/util/flat_lru_map.hpp"

namespace ssdse {

struct SsdListCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t inserts = 0;
  std::uint64_t rejected_too_large = 0;
  std::uint64_t evictions = 0;
  std::uint64_t blocks_written = 0;
  std::uint64_t resurrections = 0;  // rewrites cancelled (Fig. 9)
  std::uint64_t read_errors = 0;    // uncorrectable flash reads -> miss
  std::uint64_t stale_marks = 0;    // live-index coherence invalidations
};

struct SsdListEntry {
  std::vector<std::uint32_t> blocks;  // cache-file block ids
  Bytes cached_bytes = 0;             // prefix bytes present
  std::uint64_t freq = 0;
  std::uint32_t sc_blocks = 0;
  double ev = 0;
  bool replaceable = false;  // read back to memory since last write
  /// Live-index coherence: the flash content predates a mutation of the
  /// term. A stale entry is never served or resurrected — it only waits
  /// to be overwritten (preferred victim) or rewritten fresh.
  bool stale = false;
  std::uint64_t born = 0;    // freshness anchor for TTL (paper §IV.B)
};

class SsdListCache {
 public:
  SsdListCache(SsdCacheFile& file, std::uint32_t replace_window);

  /// Hit iff the cached prefix covers `needed_bytes`; reads the needed
  /// pages, marks the entry (and its blocks) replaceable, bumps freq.
  /// Returns nullptr on miss. `io_status` (optional) receives the flash
  /// read's status: on kUncorrectable the entry is dropped internally
  /// (blocks TRIMmed, time charged) and nullptr is returned — the miss
  /// path with the failed read's latency added. A dynamic entry's
  /// pointer is valid until the next insert or erase on this cache.
  const SsdListEntry* lookup(TermId term, Bytes needed_bytes, Micros& time,
                             IoStatus* io_status = nullptr);

  /// Admit a partial list of `bytes` (=> SC blocks). Returns flash time.
  [[nodiscard]] Micros insert(TermId term, Bytes bytes, std::uint64_t freq,
                std::uint64_t born = 0);

  /// TTL expiry: drop the entry and TRIM its blocks (cold-data
  /// deletion). Returns the flash time spent.
  [[nodiscard]] Micros erase(TermId term);

  /// Live-index coherence: flag the entry's flash content as stale.
  /// Dynamic entries turn replaceable immediately — preferred eviction
  /// victims under the Fig. 13 cascade (IREN-style: invalidated data is
  /// the cheapest to overwrite) — and insert() will never resurrect
  /// them. Static-partition entries only count the mark: their blocks
  /// are pinned, so a stale static list misses until a restart rebuilds
  /// the partition (documented degradation, DESIGN.md §12).
  void mark_stale(TermId term);

  /// Pin (term, bytes, freq) tuples as the static partition.
  [[nodiscard]] Micros preload_static(
      std::span<const std::tuple<TermId, Bytes, std::uint64_t>> entries);

  /// Persistence (src/recovery): durable mutations (installs, erases)
  /// are reported here write-ahead. May be null.
  void set_journal(CacheJournalSink* sink) { journal_ = sink; }

  /// Serialize the list map (block ids, prefix sizes, EV state, recency
  /// order) into `out` for a snapshot.
  void export_image(std::vector<ListEntryImage>& out,
                    std::vector<ListEntryImage>& static_out) const;

  /// Warm restart: rebuild the map from a recovered image on a freshly
  /// constructed cache; adopts the image's blocks in the cache file.
  /// Returns the adoption (recovery) flash time.
  [[nodiscard]] Micros restore_image(const std::vector<ListEntryImage>& entries,
                       const std::vector<ListEntryImage>& static_entries);

  bool contains(TermId term) const {
    return map_.contains(term) || static_map_.count(term) != 0;
  }
  /// Pinned in the static partition (CBSLRU): no rewrite on re-eviction.
  bool is_static(TermId term) const { return static_map_.count(term) != 0; }
  [[nodiscard]] std::size_t entry_count() const {
    return map_.size() + static_map_.size();
  }
  [[nodiscard]] const SsdListCacheStats& stats() const { return stats_; }

 private:
  [[nodiscard]] Bytes page_bytes() const {
    return file_.block_bytes() / file_.pages_per_block();
  }
  std::uint32_t blocks_for(Bytes bytes) const;
  /// Gather `needed` blocks per the Fig. 13 cascade into `out`;
  /// returns false (leaving acquired free blocks in `out`) if the whole
  /// cache cannot provide them.
  bool acquire_blocks(std::uint32_t needed, std::vector<std::uint32_t>& out,
                      Micros& time);
  void evict_entry(TermId term, std::vector<std::uint32_t>& pool);
  IoResult read_entry_pages(const SsdListEntry& e, Bytes bytes);
  [[nodiscard]] Micros write_entry_pages(const SsdListEntry& e);

  SsdCacheFile& file_;
  std::uint32_t window_;
  CacheJournalSink* journal_ = nullptr;
  FlatLruMap<TermId, SsdListEntry> map_;
  std::unordered_map<TermId, SsdListEntry> static_map_;
  // insert()'s scratch, kept so admissions allocate only the entry's
  // block list: the blocks gathered for it and the victims picked.
  std::vector<std::uint32_t> pool_;
  std::vector<TermId> picks_;
  SsdListCacheStats stats_;
};

}  // namespace ssdse
