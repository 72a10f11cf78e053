#include "src/cache/ssd_result_cache.hpp"

#include <algorithm>
#include <cassert>

namespace ssdse {

SsdResultCache::SsdResultCache(SsdCacheFile& file,
                               std::uint32_t replace_window)
    : file_(file), window_(replace_window) {
  slots_per_rb_ =
      static_cast<std::uint32_t>(file.block_bytes() / kSlotBytes);
}

std::uint32_t SsdResultCache::pages_per_slot() const {
  const auto page = file_.block_bytes() / file_.pages_per_block();
  return static_cast<std::uint32_t>((kSlotBytes + page - 1) / page);
}

const ResultEntry* SsdResultCache::lookup(QueryId qid,
                                          std::uint64_t& freq_out,
                                          Micros& time,
                                          std::uint64_t* born_out,
                                          IoStatus* io_status) {
  ++stats_.lookups;
  if (auto sit = static_map_.find(qid); sit != static_map_.end()) {
    const Loc& loc = sit->second;
    RbInfo& rb = static_rbs_[loc.rb];
    const IoResult io = file_.read(
        static_blocks_[loc.rb], loc.slot * pages_per_slot(),
        pages_per_slot());
    time += io.latency;
    if (io_status) *io_status = io.status;
    if (io.status == IoStatus::kUncorrectable) {
      // Cached bytes are gone: drop the pinned mapping and degrade to a
      // miss. The flash space stays pinned (static blocks are never
      // reclaimed), matching invalidate()'s static path.
      ++stats_.read_errors;
      static_map_.erase(sit);
      if (journal_) journal_->on_result_invalidate(qid);
      return nullptr;
    }
    auto& cached = rb.entries[loc.slot];
    ++cached.freq;
    freq_out = cached.freq;
    if (born_out) *born_out = cached.born;
    ++stats_.hits;
    return &cached.entry;
  }
  auto it = map_.find(qid);
  if (it == map_.end()) return nullptr;
  const Loc loc = it->second;
  // No recency promotion on a hit: reading an entry back to memory makes
  // its block *more* eligible for overwrite (Figs. 9/11), so RBs keep
  // their log (write-time) order in the LRU list.
  RbInfo* rb = rbs_.peek(loc.rb);
  assert(rb != nullptr);
  const IoResult io =
      file_.read(loc.rb, loc.slot * pages_per_slot(), pages_per_slot());
  time += io.latency;
  if (io_status) *io_status = io.status;
  if (io.status == IoStatus::kUncorrectable) {
    // Same slot transitions as invalidate(): the entry is unreadable,
    // so the caller's fall-through to HDD is bit-identical to a miss.
    ++stats_.read_errors;
    if (journal_) journal_->on_result_invalidate(qid);
    if (rb->slot_state[loc.slot] != 2) {
      if (rb->slot_state[loc.slot] == 0) {
        ++rb->iren;
        file_.mark_replaceable(loc.rb);
      }
      rb->slot_state[loc.slot] = 2;
    }
    map_.erase(it);
    return nullptr;
  }
  auto& cached = rb->entries[loc.slot];
  ++cached.freq;
  freq_out = cached.freq;
  if (born_out) *born_out = cached.born;
  // Hybrid scheme: the copy stays on SSD but the slot is now
  // memory-resident, so the block becomes replaceable (Fig. 9).
  if (rb->slot_state[loc.slot] == 0) {
    rb->slot_state[loc.slot] = 1;
    ++rb->iren;
    file_.mark_replaceable(loc.rb);
  }
  ++stats_.hits;
  return &cached.entry;
}

bool SsdResultCache::invalidate(QueryId qid) {
  if (auto sit = static_map_.find(qid); sit != static_map_.end()) {
    // Stale pinned copy: the slot's flash space stays pinned (static
    // blocks are never reclaimed) but the entry is no longer served.
    static_map_.erase(sit);
    if (journal_) journal_->on_result_invalidate(qid);
    return true;
  }
  auto it = map_.find(qid);
  if (it == map_.end()) return false;
  if (journal_) journal_->on_result_invalidate(qid);
  const Loc loc = it->second;
  if (RbInfo* rb = rbs_.peek(loc.rb)) {
    if (rb->slot_state[loc.slot] != 2) {
      if (rb->slot_state[loc.slot] == 0) {
        ++rb->iren;
        file_.mark_replaceable(loc.rb);
      }
      rb->slot_state[loc.slot] = 2;
    }
  }
  map_.erase(it);
  return true;
}

bool SsdResultCache::resurrect(QueryId qid) {
  auto it = map_.find(qid);
  if (it == map_.end()) return false;
  const Loc loc = it->second;
  RbInfo* rb = rbs_.peek(loc.rb);
  assert(rb != nullptr);
  if (rb->slot_state[loc.slot] != 1) return false;
  rb->slot_state[loc.slot] = 0;
  assert(rb->iren > 0);
  --rb->iren;
  if (rb->iren == 0) file_.mark_normal(loc.rb);
  ++stats_.resurrections;
  return true;
}

std::optional<std::uint32_t> SsdResultCache::acquire_block() {
  if (auto cb = file_.alloc()) return cb;
  if (rbs_.empty()) return std::nullopt;
  // Fig. 11: scan the Replace-First Region (last W RBs of the LRU list)
  // for the block with the largest IREN; ties resolved toward LRU end.
  auto best = rbs_.lru_handle();
  std::uint32_t scanned = 0;
  for (auto h = best; h != decltype(rbs_)::npos && scanned < window_;
       h = rbs_.more_recent(h), ++scanned) {
    if (rbs_.value_at(h).iren > rbs_.value_at(best).iren) best = h;
  }
  const std::uint32_t victim = rbs_.key_at(best);
  const RbInfo rb = rbs_.erase_handle(best);
  for (std::size_t s = 0; s < rb.entries.size(); ++s) {
    if (rb.slot_state[s] != 2) ++stats_.entries_dropped_by_overwrite;
    map_.erase(rb.entries[s].entry.query);
  }
  return victim;
}

Micros SsdResultCache::insert_rb(std::span<CachedResult> entries) {
  if (entries.empty()) return Micros{};
  assert(entries.size() <= slots_per_rb_);
  const auto cb = acquire_block();
  if (!cb) return Micros{};  // cache smaller than one RB: drop silently

  // An entry being rewritten elsewhere invalidates its old slot.
  for (const auto& e : entries) {
    auto it = map_.find(e.entry.query);
    if (it != map_.end()) {
      const Loc old = it->second;
      if (RbInfo* rb = rbs_.peek(old.rb)) {
        if (rb->slot_state[old.slot] != 2) {
          if (rb->slot_state[old.slot] == 0) {
            ++rb->iren;
            file_.mark_replaceable(old.rb);
          }
          rb->slot_state[old.slot] = 2;
        }
      }
      map_.erase(it);
    }
  }

  RbInfo rb;
  rb.entries.assign(entries.begin(), entries.end());
  rb.slot_state.assign(rb.entries.size(), 0);
  rb.iren = 0;
  // Write-ahead journaling: the record (payload included) must be
  // durable before the flash overwrite destroys the victim RB's data.
  if (journal_) {
    RbImage image;
    image.cb = *cb;
    image.slots.reserve(rb.entries.size());
    for (const CachedResult& e : rb.entries) {
      image.slots.push_back(RbSlotImage{e.entry.query, e.freq, e.born,
                                        /*state=*/0, e.entry.docs});
    }
    journal_->on_rb_flush(image);
  }
  const auto npages =
      static_cast<std::uint32_t>(rb.entries.size()) * pages_per_slot();
  // BBM hides program failures below this layer, so only latency remains.
  const Micros t = file_.write(*cb, npages).latency;
  for (std::uint32_t s = 0; s < rb.entries.size(); ++s) {
    map_[rb.entries[s].entry.query] =
        Loc{*cb, s, /*is_static=*/false};
  }
  rbs_.insert(*cb, std::move(rb));
  ++stats_.rb_writes;
  stats_.entries_written += entries.size();
  return t;
}

void SsdResultCache::export_image(std::vector<RbImage>& out,
                                  std::vector<RbImage>& static_out) const {
  // Dynamic RBs, MRU-first — the map's recency order is the log order
  // CBLRU victimization depends on, so the snapshot preserves it exactly.
  for (auto h = rbs_.mru_handle(); h != decltype(rbs_)::npos;
       h = rbs_.less_recent(h)) {
    const RbInfo& rb = rbs_.value_at(h);
    RbImage image;
    image.cb = rbs_.key_at(h);
    image.slots.reserve(rb.entries.size());
    for (std::size_t s = 0; s < rb.entries.size(); ++s) {
      const CachedResult& e = rb.entries[s];
      image.slots.push_back(RbSlotImage{e.entry.query, e.freq, e.born,
                                        rb.slot_state[s], e.entry.docs});
    }
    out.push_back(std::move(image));
  }
  for (std::size_t r = 0; r < static_rbs_.size(); ++r) {
    const RbInfo& rb = static_rbs_[r];
    RbImage image;
    image.cb = static_blocks_[r];
    image.slots.reserve(rb.entries.size());
    for (std::size_t s = 0; s < rb.entries.size(); ++s) {
      const CachedResult& e = rb.entries[s];
      // A pinned slot is stale once invalidate() dropped its mapping.
      auto sit = static_map_.find(e.entry.query);
      const bool live = sit != static_map_.end() &&
                        sit->second.rb == r &&
                        sit->second.slot == static_cast<std::uint32_t>(s);
      image.slots.push_back(RbSlotImage{e.entry.query, e.freq, e.born,
                                        static_cast<std::uint8_t>(live ? 0
                                                                       : 2),
                                        e.entry.docs});
    }
    static_out.push_back(std::move(image));
  }
}

Micros SsdResultCache::restore_image(
    const std::vector<RbImage>& rbs, const std::vector<RbImage>& static_rbs) {
  Micros t = micros(0);
  for (const RbImage& image : static_rbs) {
    t += file_.adopt(image.cb, CbState::kNormal);
    RbInfo rb;
    rb.slot_state.assign(image.slots.size(), 0);
    const auto rb_index = static_cast<std::uint32_t>(static_rbs_.size());
    for (std::uint32_t s = 0; s < image.slots.size(); ++s) {
      const RbSlotImage& slot = image.slots[s];
      rb.entries.push_back(CachedResult{
          ResultEntry{slot.qid, slot.docs}, slot.freq, slot.born});
      if (slot.state != 2) {
        static_map_[slot.qid] = Loc{rb_index, s, /*is_static=*/true};
      }
    }
    static_rbs_.push_back(std::move(rb));
    static_blocks_.push_back(image.cb);
  }
  // Insert LRU-first so the rebuilt recency order matches the image's
  // MRU-first order.
  for (auto it = rbs.rbegin(); it != rbs.rend(); ++it) {
    const RbImage& image = *it;
    RbInfo rb;
    for (std::uint32_t s = 0; s < image.slots.size(); ++s) {
      const RbSlotImage& slot = image.slots[s];
      rb.entries.push_back(CachedResult{
          ResultEntry{slot.qid, slot.docs}, slot.freq, slot.born});
      // Memory-resident slots degrade to valid: the L1 copy died with
      // the process, so the SSD copy is the only one again.
      const std::uint8_t state = slot.state == 2 ? 2 : 0;
      rb.slot_state.push_back(state);
      if (state == 2) {
        ++rb.iren;
      } else {
        map_[slot.qid] = Loc{image.cb, s, /*is_static=*/false};
      }
    }
    t += file_.adopt(image.cb, rb.iren > 0 ? CbState::kReplaceable
                                           : CbState::kNormal);
    rbs_.insert(image.cb, std::move(rb));
  }
  return t;
}

Micros SsdResultCache::preload_static(std::span<CachedResult> entries) {
  Micros t = micros(0);
  for (std::size_t i = 0; i < entries.size(); i += slots_per_rb_) {
    const auto n = std::min<std::size_t>(slots_per_rb_, entries.size() - i);
    const auto cb = file_.alloc();
    if (!cb) break;  // static share exhausted the region
    RbInfo rb;
    rb.entries.assign(entries.begin() + static_cast<std::ptrdiff_t>(i),
                      entries.begin() + static_cast<std::ptrdiff_t>(i + n));
    rb.slot_state.assign(rb.entries.size(), 0);
    t += file_.write(*cb, static_cast<std::uint32_t>(n) * pages_per_slot())
             .latency;
    const auto rb_index = static_cast<std::uint32_t>(static_rbs_.size());
    for (std::uint32_t s = 0; s < rb.entries.size(); ++s) {
      static_map_[rb.entries[s].entry.query] =
          Loc{rb_index, s, /*is_static=*/true};
    }
    static_rbs_.push_back(std::move(rb));
    static_blocks_.push_back(*cb);
    stats_.entries_written += n;
    ++stats_.rb_writes;
  }
  return t;
}

}  // namespace ssdse
