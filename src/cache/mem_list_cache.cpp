#include "src/cache/mem_list_cache.hpp"

#include <algorithm>

namespace ssdse {

MemListCache::MemListCache(Bytes capacity, CachePolicy policy,
                           std::uint32_t replace_window)
    : capacity_(capacity), policy_(policy), window_(replace_window) {}

const CachedList* MemListCache::lookup(TermId term, Bytes needed_bytes) {
  CachedList* e = map_.touch(term);
  if (!e) return nullptr;
  if (e->cached_bytes < needed_bytes) return nullptr;  // prefix too short
  ++e->freq;
  e->ev = e->sc_blocks
              ? static_cast<double>(e->freq) / e->sc_blocks
              : 0.0;
  return e;
}

bool MemListCache::evict_one() {
  if (map_.empty()) return false;
  if (policy_ == CachePolicy::kLru) {
    auto victim = map_.pop_lru();
    used_ -= victim->second.cached_bytes;
    evicted_.push_back(EvictedList{victim->first, victim->second});
    return true;
  }
  // CBLRU/CBSLRU: minimum EV inside the Replace-First Region (the last
  // `window_` entries of the LRU list), Fig. 12. Strict `<` keeps the
  // entry closest to the LRU end on EV ties — the same victim the
  // iterator-based scan picked, so eviction order is unchanged.
  auto best = map_.lru_handle();
  std::uint32_t scanned = 0;
  for (auto h = map_.lru_handle();
       h != decltype(map_)::npos && scanned < window_;
       h = map_.more_recent(h), ++scanned) {
    if (map_.value_at(h).ev < map_.value_at(best).ev) best = h;
  }
  // Erase through the handle the scan already holds — no second hash
  // walk to re-find the victim by key.
  const TermId term = map_.key_at(best);
  CachedList info = map_.erase_handle(best);
  used_ -= info.cached_bytes;
  evicted_.push_back(EvictedList{term, info});
  return true;
}

bool MemListCache::erase(TermId term) {
  auto victim = map_.erase(term);
  if (!victim) return false;
  used_ -= victim->cached_bytes;
  return true;
}

std::span<const EvictedList> MemListCache::insert(TermId term,
                                                  CachedList info) {
  evicted_.clear();
  if (info.cached_bytes > capacity_) {
    // Larger than the whole cache: pass it straight through as an
    // eviction so the SSD level can still consider it.
    evicted_.push_back(EvictedList{term, info});
    return evicted_;
  }
  if (CachedList* existing = map_.touch(term)) {
    used_ -= existing->cached_bytes;
    info.freq = std::max(info.freq, existing->freq);
    *existing = info;
    used_ += existing->cached_bytes;
  } else {
    used_ += info.cached_bytes;
    map_.insert(term, info);
  }
  while (used_ > capacity_) {
    if (!evict_one()) break;
  }
  return evicted_;
}

}  // namespace ssdse
