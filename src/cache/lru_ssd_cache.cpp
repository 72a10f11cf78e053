#include "src/cache/lru_ssd_cache.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ssdse {

// --- LruSsdResultCache -----------------------------------------------

LruSsdResultCache::LruSsdResultCache(Ssd& ssd, Lpn base, std::uint64_t pages)
    : ssd_(ssd), base_(base) {
  const Bytes page = ssd.config().nand.page_bytes;
  pages_per_slot_ = static_cast<std::uint32_t>(
      (CacheConfig::kResultEntrySlotBytes + page - 1) / page);
  num_slots_ = static_cast<std::uint32_t>(pages / pages_per_slot_);
  free_slots_.reserve(num_slots_);
  for (std::uint32_t s = num_slots_; s-- > 0;) free_slots_.push_back(s);
}

const ResultEntry* LruSsdResultCache::lookup(QueryId qid,
                                             std::uint64_t& freq_out,
                                             Micros& time,
                                             std::uint64_t* born_out,
                                             IoStatus* io_status) {
  ++stats_.lookups;
  Slot* s = map_.touch(qid);
  if (!s) return nullptr;
  const IoResult io = ssd_.read_pages(
      base_ + static_cast<Lpn>(s->slot) * pages_per_slot_, pages_per_slot_);
  time += io.latency;
  if (io_status) *io_status = io.status;
  if (io.status == IoStatus::kUncorrectable) {
    // Unreadable slot: drop the entry and miss (slot returns to the
    // free pool; the next insert simply rewrites it).
    ++stats_.read_errors;
    free_slots_.push_back(s->slot);
    map_.erase(qid);
    return nullptr;
  }
  ++s->cached.freq;
  freq_out = s->cached.freq;
  if (born_out) *born_out = s->cached.born;
  ++stats_.hits;
  return &s->cached.entry;
}

bool LruSsdResultCache::erase(QueryId qid) {
  auto victim = map_.erase(qid);
  if (!victim) return false;
  free_slots_.push_back(victim->slot);
  return true;
}

Micros LruSsdResultCache::insert(CachedResult entry) {
  if (num_slots_ == 0) return Micros{};
  Micros t;
  const QueryId qid = entry.entry.query;
  std::uint32_t slot;
  if (Slot* existing = map_.touch(qid)) {
    slot = existing->slot;  // overwrite in place (random small write)
    existing->cached = std::move(entry);
  } else {
    if (free_slots_.empty()) {
      auto victim = map_.pop_lru();
      assert(victim.has_value());
      free_slots_.push_back(victim->second.slot);
      ++stats_.evictions;
    }
    slot = free_slots_.back();
    free_slots_.pop_back();
    map_.insert(qid, Slot{std::move(entry), slot});
  }
  // BBM hides program failures below this layer; only latency remains.
  t += ssd_.write_pages(base_ + static_cast<Lpn>(slot) * pages_per_slot_,
                        pages_per_slot_)
           .latency;
  ++stats_.inserts;
  return t;
}

// --- PageRunAllocator --------------------------------------------------

PageRunAllocator::PageRunAllocator(Lpn base, std::uint64_t pages)
    : free_pages_(pages), total_pages_(pages) {
  if (pages > 0) runs_.emplace(base, pages);
}

bool PageRunAllocator::alloc(
    std::uint64_t n, std::vector<std::pair<Lpn, std::uint64_t>>& out) {
  if (n > free_pages_) return false;
  std::uint64_t remaining = n;
  while (remaining > 0) {
    assert(!runs_.empty());
    auto it = runs_.begin();  // first fit
    const Lpn start = it->first;
    const std::uint64_t len = it->second;
    const std::uint64_t take = std::min(len, remaining);
    out.emplace_back(start, take);
    runs_.erase(it);
    if (take < len) runs_.emplace(start + take, len - take);
    remaining -= take;
  }
  free_pages_ -= n;
  return true;
}

void PageRunAllocator::free(Lpn start, std::uint64_t len) {
  if (len == 0) return;
  free_pages_ += len;
  auto next = runs_.lower_bound(start);
  // Coalesce with the preceding run.
  if (next != runs_.begin()) {
    auto prev = std::prev(next);
    assert(prev->first + prev->second <= start);
    if (prev->first + prev->second == start) {
      start = prev->first;
      len += prev->second;
      runs_.erase(prev);
    }
  }
  // Coalesce with the following run.
  if (next != runs_.end() && start + len == next->first) {
    len += next->second;
    runs_.erase(next);
  }
  runs_.emplace(start, len);
}

// --- LruSsdListCache ---------------------------------------------------

LruSsdListCache::LruSsdListCache(Ssd& ssd, Lpn base, std::uint64_t pages)
    : ssd_(ssd),
      page_bytes_(ssd.config().nand.page_bytes),
      alloc_(base, pages) {}

const LruSsdListCache::Entry* LruSsdListCache::lookup(TermId term,
                                                      Bytes needed_bytes,
                                                      Micros& time,
                                                      IoStatus* io_status) {
  ++stats_.lookups;
  Entry* e = map_.touch(term);
  if (!e) return nullptr;
  if (e->bytes < needed_bytes) return nullptr;  // cached prefix too short
  ++e->freq;
  auto pages = static_cast<std::uint64_t>(
      (needed_bytes + page_bytes_ - 1) / page_bytes_);
  pages = std::min(pages, e->pages);
  IoResult io;
  for (const auto& [start, len] : e->runs) {
    if (pages == 0) break;
    const auto n = std::min(len, pages);
    io += ssd_.read_pages(start, n);
    pages -= n;
  }
  time += io.latency;
  if (io_status) *io_status = io.status;
  if (io.status == IoStatus::kUncorrectable) {
    // Unreadable list: drop the entry, free its pages, and miss.
    ++stats_.read_errors;
    erase(term);
    return nullptr;
  }
  ++stats_.hits;
  return e;
}

void LruSsdListCache::evict_lru() {
  auto victim = map_.pop_lru();
  assert(victim.has_value());
  for (const auto& [start, len] : victim->second.runs) {
    alloc_.free(start, len);
  }
  ++stats_.evictions;
}

bool LruSsdListCache::erase(TermId term) {
  auto victim = map_.erase(term);
  if (!victim) return false;
  for (const auto& [start, len] : victim->runs) alloc_.free(start, len);
  return true;
}

Micros LruSsdListCache::insert(TermId term, Bytes bytes, std::uint64_t freq,
                               std::uint64_t born) {
  Micros t = micros(0);
  const auto pages =
      static_cast<std::uint64_t>((bytes + page_bytes_ - 1) / page_bytes_);
  if (pages == 0 || pages > alloc_.total_pages()) {
    ++stats_.rejected_too_large;
    return Micros{};
  }
  erase(term);  // a rewrite releases the old copy's pages first
  while (alloc_.free_pages() < pages && !map_.empty()) evict_lru();
  Entry e;
  if (!alloc_.alloc(pages, e.runs)) {
    ++stats_.rejected_too_large;
    return Micros{};
  }
  e.bytes = bytes;
  e.pages = pages;
  e.freq = freq;
  e.born = born;
  for (const auto& [start, len] : e.runs) {
    // BBM hides program failures below this layer; only latency remains.
    t += ssd_.write_pages(start, len).latency;
  }
  map_.insert(term, std::move(e));
  ++stats_.inserts;
  return t;
}

}  // namespace ssdse
