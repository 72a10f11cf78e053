#include "src/cache/mem_result_cache.hpp"

#include <algorithm>

namespace ssdse {

MemResultCache::MemResultCache(Bytes capacity)
    : capacity_(capacity),
      // Honour the byte budget exactly: a capacity below one entry
      // means *zero* entries, not a free entry (insert then bounces the
      // entry straight to the eviction path with a null handle).
      max_entries_(capacity / kResultEntryBytes) {}

const CachedResult* MemResultCache::lookup(QueryId qid) {
  CachedResult* hit = map_.touch(qid);
  if (hit) ++hit->freq;
  return hit;
}

MemInsert MemResultCache::insert(ResultEntry entry, std::uint64_t freq,
                                 std::uint64_t born) {
  MemInsert out;
  evicted_.clear();
  if (CachedResult* existing = map_.touch(entry.query)) {
    existing->entry = std::move(entry);
    existing->born = std::max(existing->born, born);
    out.handle = existing;
    return out;
  }
  if (max_entries_ == 0) {
    // Degenerate capacity: the entry cannot be admitted at all.
    evicted_.push_back(CachedResult{std::move(entry), freq, born});
    out.evicted = evicted_;
    return out;
  }
  while (map_.size() >= max_entries_) {
    auto victim = map_.pop_lru();
    if (!victim) break;
    evicted_.push_back(std::move(victim->second));
  }
  const QueryId qid = entry.query;
  out.handle = &map_.insert(qid, CachedResult{std::move(entry), freq, born});
  out.evicted = evicted_;
  return out;
}

}  // namespace ssdse
