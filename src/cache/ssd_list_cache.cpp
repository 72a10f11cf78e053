#include "src/cache/ssd_list_cache.hpp"

#include <algorithm>
#include <cassert>

#include "src/workload/log_analysis.hpp"

namespace ssdse {

SsdListCache::SsdListCache(SsdCacheFile& file, std::uint32_t replace_window)
    : file_(file), window_(replace_window) {}

std::uint32_t SsdListCache::blocks_for(Bytes bytes) const {
  return formula_sc_blocks(bytes, 1.0, file_.block_bytes());
}

IoResult SsdListCache::read_entry_pages(const SsdListEntry& e, Bytes bytes) {
  // Read ceil(bytes / page) pages walking the entry's blocks in order.
  auto pages = static_cast<std::uint64_t>(
      (std::min(bytes, e.cached_bytes) + page_bytes() - 1) / page_bytes());
  IoResult io;
  const auto ppb = file_.pages_per_block();
  for (std::uint32_t cb : e.blocks) {
    if (pages == 0) break;
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(pages, ppb));
    io += file_.read(cb, 0, n);
    pages -= n;
  }
  return io;
}

Micros SsdListCache::write_entry_pages(const SsdListEntry& e) {
  auto pages = static_cast<std::uint64_t>(
      (e.cached_bytes + page_bytes() - 1) / page_bytes());
  Micros t = micros(0);
  const auto ppb = file_.pages_per_block();
  for (std::uint32_t cb : e.blocks) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(pages, ppb));
    // BBM hides program failures below this layer; only latency remains.
    t += file_.write(cb, std::max(n, 1u)).latency;
    pages -= n;
    stats_.blocks_written += 1;
  }
  return t;
}

const SsdListEntry* SsdListCache::lookup(TermId term, Bytes needed_bytes,
                                         Micros& time, IoStatus* io_status) {
  ++stats_.lookups;
  if (auto sit = static_map_.find(term); sit != static_map_.end()) {
    SsdListEntry& e = sit->second;
    if (e.cached_bytes < needed_bytes) return nullptr;
    ++e.freq;
    const IoResult io = read_entry_pages(e, needed_bytes);
    time += io.latency;
    if (io_status) *io_status = io.status;
    if (io.status == IoStatus::kUncorrectable) {
      // Cached prefix unreadable: drop the pinned mapping (blocks stay
      // allocated, matching erase()'s static path) and miss.
      ++stats_.read_errors;
      static_map_.erase(sit);
      if (journal_) journal_->on_list_erase(term);
      return nullptr;
    }
    ++stats_.hits;
    return &e;
  }
  // No recency promotion on a hit: the copy just became memory-resident,
  // so its blocks turn replaceable and should drift toward the
  // Replace-First Region rather than back to the working region.
  SsdListEntry* e = map_.peek(term);
  if (!e) return nullptr;
  if (e->cached_bytes < needed_bytes) return nullptr;  // prefix too short
  ++e->freq;
  e->ev = formula_ev(e->freq, e->sc_blocks);
  const IoResult io = read_entry_pages(*e, needed_bytes);
  time += io.latency;
  if (io_status) *io_status = io.status;
  if (io.status == IoStatus::kUncorrectable) {
    // Unreadable entry: cold-data deletion as in erase() — TRIM the
    // blocks, drop the mapping, and fall through to HDD like any miss.
    ++stats_.read_errors;
    if (journal_) journal_->on_list_erase(term);
    std::vector<std::uint32_t> pool;
    evict_entry(term, pool);
    for (std::uint32_t cb : pool) time += file_.trim(cb);
    return nullptr;
  }
  // Hybrid scheme: copy promoted to memory; SSD copy stays but becomes
  // replaceable (Fig. 9).
  if (!e->replaceable) {
    e->replaceable = true;
    for (std::uint32_t cb : e->blocks) file_.mark_replaceable(cb);
  }
  ++stats_.hits;
  return e;
}

void SsdListCache::evict_entry(TermId term,
                               std::vector<std::uint32_t>& pool) {
  auto victim = map_.erase(term);
  assert(victim.has_value());
  for (std::uint32_t cb : victim->blocks) pool.push_back(cb);
  ++stats_.evictions;
}

bool SsdListCache::acquire_blocks(std::uint32_t needed,
                                  std::vector<std::uint32_t>& out,
                                  Micros& time) {
  // Free blocks first.
  while (out.size() < needed) {
    auto cb = file_.alloc();
    if (!cb) break;
    out.push_back(*cb);
  }
  auto shortfall = [&] {
    return needed - static_cast<std::uint32_t>(
                        std::min<std::size_t>(out.size(), needed));
  };
  if (shortfall() == 0) return true;

  // The window scans below only read the map; victims are erased by key
  // afterwards, because an erase relocates entries and voids handles.
  constexpr auto npos = decltype(map_)::npos;

  // Pass 1 (Fig. 13 write "1"): replaceable entries inside the
  // Replace-First Region, LRU end first.
  std::vector<TermId>& picks = picks_;
  picks.clear();
  std::uint32_t gathered = 0;
  std::uint32_t scanned = 0;
  for (auto h = map_.lru_handle();
       h != npos && scanned < window_ && gathered < shortfall();
       h = map_.more_recent(h), ++scanned) {
    if (map_.value_at(h).replaceable) {
      picks.push_back(map_.key_at(h));
      gathered += static_cast<std::uint32_t>(map_.value_at(h).blocks.size());
    }
  }
  for (TermId t : picks) evict_entry(t, out);
  if (shortfall() == 0) return true;

  // Pass 2 (write "2"): an exact-size entry in the window.
  scanned = 0;
  for (auto h = map_.lru_handle(); h != npos && scanned < window_;
       h = map_.more_recent(h), ++scanned) {
    if (static_cast<std::uint32_t>(map_.value_at(h).blocks.size()) ==
        shortfall()) {
      evict_entry(map_.key_at(h), out);
      return true;
    }
  }

  // Pass 3 (write "3"): assemble several window entries, LRU end first.
  picks.clear();
  gathered = 0;
  scanned = 0;
  for (auto h = map_.lru_handle();
       h != npos && scanned < window_ && gathered < shortfall();
       h = map_.more_recent(h), ++scanned) {
    picks.push_back(map_.key_at(h));
    gathered += static_cast<std::uint32_t>(map_.value_at(h).blocks.size());
  }
  for (TermId t : picks) evict_entry(t, out);
  if (shortfall() == 0) return true;

  // Pass 4 (write "4", worst case): the whole LRU list.
  while (shortfall() > 0 && !map_.empty()) {
    evict_entry(map_.key_at(map_.lru_handle()), out);
  }
  (void)time;
  return shortfall() == 0;
}

void SsdListCache::mark_stale(TermId term) {
  if (auto sit = static_map_.find(term); sit != static_map_.end()) {
    // Pinned blocks cannot be released or overwritten; the mapping
    // stays, the manager's epoch check keeps rejecting it. Count the
    // transition only.
    if (!sit->second.stale) {
      sit->second.stale = true;
      ++stats_.stale_marks;
    }
    return;
  }
  SsdListEntry* e = map_.peek(term);
  if (e == nullptr || e->stale) return;
  e->stale = true;
  ++stats_.stale_marks;
  // IREN-style preference: invalidated flash content is the cheapest
  // thing to overwrite, so the entry's blocks go replaceable at once
  // and pass 1 of the Fig. 13 cascade picks them up first.
  if (!e->replaceable) {
    e->replaceable = true;
    for (std::uint32_t cb : e->blocks) file_.mark_replaceable(cb);
  }
}

Micros SsdListCache::erase(TermId term) {
  Micros t = micros(0);
  if (auto sit = static_map_.find(term); sit != static_map_.end()) {
    // Stale pinned copy: drop the mapping; pinned blocks stay allocated.
    static_map_.erase(sit);
    if (journal_) journal_->on_list_erase(term);
    return t;
  }
  if (!map_.contains(term)) return t;
  if (journal_) journal_->on_list_erase(term);
  std::vector<std::uint32_t> pool;
  evict_entry(term, pool);
  for (std::uint32_t cb : pool) t += file_.trim(cb);
  return t;
}

Micros SsdListCache::insert(TermId term, Bytes bytes, std::uint64_t freq,
                            std::uint64_t born) {
  if (is_static(term)) return Micros{};  // pinned copy already present
  Micros t = micros(0);
  const std::uint32_t needed = blocks_for(bytes);
  if (needed == 0) return Micros{};
  if (needed > file_.num_blocks()) {
    ++stats_.rejected_too_large;
    return Micros{};
  }
  // Cancellation (replaceable -> normal, Fig. 9): the SSD still holds a
  // prefix at least as long as what we would write, so revalidate it
  // instead of rewriting. Never for a stale entry — its flash content
  // predates a mutation; it must take the erase+rewrite path below.
  if (SsdListEntry* existing = map_.touch(term)) {
    if (!existing->stale && existing->cached_bytes >= bytes) {
      existing->freq = std::max(existing->freq, freq);
      existing->ev = formula_ev(existing->freq, existing->sc_blocks);
      existing->born = std::max(existing->born, born);
      if (existing->replaceable) {
        existing->replaceable = false;
        for (std::uint32_t cb : existing->blocks) file_.mark_normal(cb);
      }
      ++stats_.resurrections;
      return Micros{};
    }
  }
  // Rewrite of a cached term: release the old copy first (single hash
  // walk: erase doubles as the existence check).
  std::vector<std::uint32_t>& pool = pool_;
  pool.clear();
  if (auto victim = map_.erase(term)) {
    for (std::uint32_t cb : victim->blocks) pool.push_back(cb);
    ++stats_.evictions;
  }

  if (!acquire_blocks(needed, pool, t)) {
    ++stats_.rejected_too_large;
    for (std::uint32_t cb : pool) t += file_.trim(cb);
    return t;
  }
  SsdListEntry e;
  e.blocks.assign(pool.begin(), pool.begin() + needed);
  e.cached_bytes = bytes;
  e.freq = freq;
  e.sc_blocks = needed;
  e.ev = formula_ev(freq, needed);
  e.replaceable = false;
  e.born = born;
  // Write-ahead journaling: the install record must be durable before
  // the overwrite destroys the victims' data on flash.
  if (journal_) {
    journal_->on_list_install(ListEntryImage{term, e.blocks, bytes, freq,
                                             needed, born,
                                             /*replaceable=*/false});
  }
  t += write_entry_pages(e);
  // Excess blocks from oversized victims: cold-data deletion via TRIM.
  for (std::size_t i = needed; i < pool.size(); ++i) {
    t += file_.trim(pool[i]);
  }
  map_.insert(term, std::move(e));
  ++stats_.inserts;
  return t;
}

void SsdListCache::export_image(
    std::vector<ListEntryImage>& out,
    std::vector<ListEntryImage>& static_out) const {
  for (auto h = map_.mru_handle(); h != decltype(map_)::npos;
       h = map_.less_recent(h)) {  // MRU-first
    const SsdListEntry& e = map_.value_at(h);
    out.push_back(ListEntryImage{map_.key_at(h), e.blocks, e.cached_bytes,
                                 e.freq, e.sc_blocks, e.born, e.replaceable});
  }
  for (const auto& [term, e] : static_map_) {
    static_out.push_back(ListEntryImage{term, e.blocks, e.cached_bytes,
                                        e.freq, e.sc_blocks, e.born,
                                        /*replaceable=*/false});
  }
}

Micros SsdListCache::restore_image(
    const std::vector<ListEntryImage>& entries,
    const std::vector<ListEntryImage>& static_entries) {
  Micros t = micros(0);
  auto rebuild = [](const ListEntryImage& image) {
    SsdListEntry e;
    e.blocks = image.blocks;
    e.cached_bytes = image.cached_bytes;
    e.freq = image.freq;
    e.sc_blocks = image.sc_blocks;
    e.ev = formula_ev(image.freq, std::max(image.sc_blocks, 1u));
    // The L1 copy died with the process, so the SSD copy is current
    // again — replaceable marks are not carried across a restart.
    // Stale marks aren't either: replayed ingest records re-arm the
    // epochs, which re-derive staleness from born ticks.
    e.replaceable = false;
    e.stale = false;
    e.born = image.born;
    return e;
  };
  for (const ListEntryImage& image : static_entries) {
    for (std::uint32_t cb : image.blocks) {
      t += file_.adopt(cb, CbState::kNormal);
    }
    static_map_.emplace(image.term, rebuild(image));
  }
  // Insert LRU-first so the rebuilt recency order matches the image's
  // MRU-first order.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    for (std::uint32_t cb : it->blocks) {
      t += file_.adopt(cb, CbState::kNormal);
    }
    map_.insert(it->term, rebuild(*it));
  }
  return t;
}

Micros SsdListCache::preload_static(
    std::span<const std::tuple<TermId, Bytes, std::uint64_t>> entries) {
  Micros t = micros(0);
  for (const auto& [term, bytes, freq] : entries) {
    const std::uint32_t needed = blocks_for(bytes);
    if (needed == 0) continue;
    std::vector<std::uint32_t> pool;
    while (pool.size() < needed) {
      auto cb = file_.alloc();
      if (!cb) break;
      pool.push_back(*cb);
    }
    if (pool.size() < needed) {
      // Static share exhausted: return what we took and stop.
      for (std::uint32_t cb : pool) t += file_.trim(cb);
      break;
    }
    SsdListEntry e;
    e.blocks = std::move(pool);
    e.cached_bytes = bytes;
    e.freq = freq;
    e.sc_blocks = needed;
    e.ev = formula_ev(freq, needed);
    t += write_entry_pages(e);
    static_map_.emplace(term, std::move(e));
  }
  return t;
}

}  // namespace ssdse
