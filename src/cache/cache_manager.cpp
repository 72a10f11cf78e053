#include "src/cache/cache_manager.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace ssdse {

namespace {

/// HDD skipped-read chunk: the engine skips through a list in segments
/// rather than streaming it (Lucene skip lists, §III).
constexpr Bytes kHddChunkBytes = 256 * KiB;

}  // namespace

CacheManager::CacheManager(const CacheConfig& cfg, Ssd* ssd,
                           StorageDevice& index_store, RamDevice& ram,
                           IndexView& index)
    : cfg_(cfg),
      ssd_(ssd),
      index_store_(index_store),
      ram_(ram),
      index_(index),
      mem_rc_(cfg.mem_result_capacity),
      mem_lc_(cfg.mem_list_capacity, cfg.policy, cfg.replace_window),
      wb_(cfg.results_per_rb()),
      breaker_(cfg.breaker) {
  if (cfg_.intersection_capacity > 0) {
    ic_ = std::make_unique<IntersectionCache>(cfg_.intersection_capacity);
  }
  if (cfg_.sieve_threshold > 1) {
    sieve_ = std::make_unique<SieveFilter>(cfg_.sieve_threshold,
                                           /*ghost_capacity=*/65'536);
  }
  if (!cfg_.l2) return;  // one-level configuration: memory caches only
  if (ssd == nullptr) {
    throw std::invalid_argument("CacheManager: l2 enabled but no SSD given");
  }
  const auto ppb = ssd->config().nand.pages_per_block;
  const Bytes page = ssd->config().nand.page_bytes;
  const Bytes flash_block = static_cast<Bytes>(ppb) * page;
  const auto rc_blocks =
      static_cast<std::uint32_t>(cfg.ssd_result_capacity / flash_block);
  const auto lc_blocks =
      static_cast<std::uint32_t>(cfg.ssd_list_capacity / flash_block);
  const Lpn rc_base = 0;
  const Lpn lc_base = static_cast<Lpn>(rc_blocks) * ppb;
  if ((static_cast<Lpn>(rc_blocks) + lc_blocks) * ppb >
      ssd->logical_pages()) {
    throw std::invalid_argument(
        "CacheManager: SSD cache capacities exceed the SSD");
  }
  if (cost_based()) {
    result_file_ = std::make_unique<SsdCacheFile>(*ssd, rc_base, rc_blocks);
    list_file_ = std::make_unique<SsdCacheFile>(*ssd, lc_base, lc_blocks);
    ssd_rc_ =
        std::make_unique<SsdResultCache>(*result_file_, cfg.replace_window);
    ssd_lc_ = std::make_unique<SsdListCache>(*list_file_, cfg.replace_window);
  } else {
    lru_rc_ = std::make_unique<LruSsdResultCache>(
        *ssd, rc_base, static_cast<std::uint64_t>(rc_blocks) * ppb);
    lru_lc_ = std::make_unique<LruSsdListCache>(
        *ssd, lc_base, static_cast<std::uint64_t>(lc_blocks) * ppb);
  }
}

Bytes CacheManager::needed_bytes(const TermMeta& meta) const {
  const auto b = static_cast<Bytes>(
      std::ceil(meta.utilization * static_cast<double>(meta.list_bytes)));
  return std::clamp<Bytes>(b, std::min<Bytes>(meta.list_bytes, 1),
                           meta.list_bytes);
}

void CacheManager::drop_result_copies(QueryId qid) {
  mem_rc_.erase(qid);
  wb_.cancel(qid);
  if (!cfg_.l2) return;
  if (cost_based()) {
    ssd_rc_->invalidate(qid);
  } else {
    lru_rc_->erase(qid);
  }
}

void CacheManager::expire_result(QueryId qid) {
  ++stats_.results_expired;
  drop_result_copies(qid);
}

void CacheManager::note_term_mutations(std::span<const TermId> terms,
                                       std::uint64_t tick) {
  if (terms.empty()) return;
  coherence_ = true;
  for (const TermId t : terms) {
    auto& epoch = term_epoch_[t];
    if (tick > epoch) epoch = tick;
  }
}

void CacheManager::note_doc_count_change(std::uint64_t tick) {
  coherence_ = true;
  doc_count_armed_ = true;
  if (tick > doc_count_epoch_) doc_count_epoch_ = tick;
}

const ResultEntry* CacheManager::lookup_result(QueryId qid,
                                               std::span<const TermId> terms,
                                               Tier* tier_out, Micros* time) {
  if (!cfg_.result_cache) return nullptr;
  ++stats_.result_lookups;
  // L1.
  if (const CachedResult* hit = mem_rc_.lookup(qid)) {
    if (expired(hit->born)) {
      expire_result(qid);
      return nullptr;
    }
    if (stale_result(terms, hit->born)) {
      // Coherence: an involved term mutated since this result was
      // computed. Every copy goes (they are all at least as old).
      ++stats_.stale_result_invalidations;
      drop_result_copies(qid);
      return nullptr;
    }
    ++stats_.result_hits_mem;
    *time += ram_.access_cost(kResultEntryBytes);
    *tier_out = Tier::kMemory;
    return &hit->entry;
  }
  // Write buffer: still in DRAM on its way to the SSD.
  if (auto buffered = wb_.take(qid)) {
    if (expired(buffered->born)) {
      expire_result(qid);
      return nullptr;
    }
    if (stale_result(terms, buffered->born)) {
      ++stats_.stale_result_invalidations;
      drop_result_copies(qid);
      return nullptr;
    }
    ++stats_.result_hits_mem;
    *time += ram_.access_cost(kResultEntryBytes);
    *tier_out = Tier::kMemory;
    ++buffered->freq;
    return promote_result(std::move(buffered->entry), buffered->freq,
                          buffered->born);
  }
  // L2.
  std::uint64_t freq = 0;
  std::uint64_t born = 0;
  const ResultEntry* ssd_hit = nullptr;
  Micros flash = micros(0);
  if (cfg_.l2) {
    if (!breaker_.allow()) {
      // Breaker open: skip the SSD probe entirely and fall through to
      // the HDD path, exactly as if the entry were not cached.
      ++stats_.breaker_bypassed_probes;
    } else {
      IoStatus st = IoStatus::kOk;
      if (cost_based()) {
        ssd_hit = ssd_rc_->lookup(qid, freq, flash, &born, &st);
      } else {
        ssd_hit = lru_rc_->lookup(qid, freq, flash, &born, &st);
      }
      // A flash read happened iff we got a hit or the read failed (a
      // plain map miss touches no flash and must not feed the window).
      if (ssd_hit || st == IoStatus::kUncorrectable) {
        breaker_.record(st != IoStatus::kUncorrectable);
      }
      if (st == IoStatus::kUncorrectable) {
        ++stats_.ssd_read_errors;
        *time += flash;  // the failed read's latency is real query time
      }
    }
  }
  if (ssd_hit) {
    if (expired(born)) {
      expire_result(qid);
      return nullptr;
    }
    if (stale_result(terms, born)) {
      // The flash read happened and its latency is real; the content is
      // not servable. Falls through exactly like a miss (§10-style
      // degradation accounting: a stale hit is never a hit).
      *time += flash;
      ++stats_.stale_result_invalidations;
      ++stats_.stale_ssd_result_misses;
      drop_result_copies(qid);
      return nullptr;
    }
    ++stats_.result_hits_ssd;
    *time += flash;
    *tier_out = Tier::kSsd;
    // Promote to L1 (hybrid scheme: the SSD copy stays, now replaceable).
    // Copy now: the eviction cascade may rewrite either SSD result cache
    // and dangle `ssd_hit`.
    return promote_result(*ssd_hit, freq, born);
  }
  return nullptr;
}

const ResultEntry* CacheManager::promote_result(ResultEntry entry,
                                                std::uint64_t freq,
                                                std::uint64_t born) {
  auto ins = mem_rc_.insert(std::move(entry), freq, born);
  const ResultEntry* served;
  if (ins.handle) {
    // Single probe: the insert handle serves the query directly (the
    // seed re-looked the key up, paying a second hash walk — and that
    // lookup bumped freq, a semantic the handle path preserves). The
    // cascade below never inserts into or erases from L1, so the handle
    // outlives it.
    ++ins.handle->freq;
    served = &ins.handle->entry;
  } else {
    // Degenerate L1 (capacity below one entry): the promoted entry was
    // bounced into the eviction batch. Serve from a scratch copy taken
    // *before* the cascade moves the batch into the write buffer / SSD.
    ++ins.evicted.back().freq;
    promoted_scratch_ = ins.evicted.back().entry;
    served = &promoted_scratch_;
  }
  route_result_evictions(ins.evicted);
  return served;
}

Micros CacheManager::read_list_from_hdd(TermId term, Bytes bytes) {
  const Extent full = index_.layout().extent(term);
  const Extent pfx = index_.layout().prefix_extent(term, bytes);
  Micros t = micros(0);
  // Skipped reads: the prefix is consumed in chunks whose gaps grow as
  // the frequency-sorted list is skipped through.
  Lba lba = pfx.lba();
  Bytes remaining = pfx.length;
  const Lba extent_end = full.lba() + full.sectors();
  while (remaining > 0) {
    const Bytes chunk = std::min(remaining, kHddChunkBytes);
    const auto sectors =
        static_cast<std::uint32_t>(bytes_to_sectors(chunk));
    const IoResult io = index_store_.read(std::min(lba, extent_end - 1),
                                          sectors);
    t += io.latency;
    if (io.status == IoStatus::kUncorrectable) {
      // HDD media error: the replica re-read penalty is already in the
      // latency; the data itself still arrives (latency-only model).
      ++stats_.hdd_read_errors;
    }
    remaining -= chunk;
    // Skip forward: half a chunk of postings the scorer steps over.
    lba += sectors + sectors / 2;
  }
  ++stats_.hdd_list_reads;
  return t;
}

Micros CacheManager::expire_list(TermId term) {
  ++stats_.lists_expired;
  Micros t = micros(0);
  mem_lc_.erase(term);
  if (cfg_.l2) {
    if (cost_based()) {
      t += ssd_lc_->erase(term);
    } else {
      lru_lc_->erase(term);
    }
  }
  return t;
}

Tier CacheManager::fetch_list(TermId term, Micros* time) {
  const TermMeta meta = index_.term_meta_fast(term);
  const Bytes needed = needed_bytes(meta);
  if (!cfg_.list_cache) {
    // No list caching in this configuration: always hit the index store.
    *time += read_list_from_hdd(term, needed);
    return Tier::kHdd;
  }
  ++stats_.list_lookups;
  // L1.
  if (const CachedList* hit = mem_lc_.lookup(term, needed)) {
    if (expired(hit->born)) {
      stats_.background_flash_time += expire_list(term);
    } else if (stale_list(term, hit->born)) {
      // Coherence: drop only the L1 copy and keep probing — the SSD
      // copy has its own birth tick and is judged on its own below.
      ++stats_.stale_list_invalidations;
      mem_lc_.erase(term);
    } else {
      ++stats_.list_hits_mem;
      *time += ram_.access_cost(needed);
      return Tier::kMemory;
    }
  }
  // L2.
  std::uint64_t promoted_freq = 1;
  std::uint64_t promoted_born = now_;
  Bytes promoted_bytes = 0;
  bool ssd_hit = false;
  Micros flash = micros(0);
  if (cfg_.l2) {
    if (!breaker_.allow()) {
      // Breaker open: no SSD probe; the query pays the HDD path below.
      ++stats_.breaker_bypassed_probes;
    } else {
      IoStatus st = IoStatus::kOk;
      // `e` points into the list cache's map: every read of it happens
      // before the expire/erase call that may relocate it.
      if (cost_based()) {
        if (const SsdListEntry* e =
                ssd_lc_->lookup(term, needed, flash, &st)) {
          if (expired(e->born)) {
            stats_.background_flash_time += expire_list(term);
          } else if (stale_list(term, e->born)) {
            // Stale flash content: charge the probe's read latency,
            // flag the entry as a preferred eviction victim, and fall
            // through to the HDD exactly like a miss — the fresh list
            // re-enters through the normal promote/evict cycle.
            *time += flash;
            ++stats_.stale_list_invalidations;
            ++stats_.stale_ssd_list_misses;
            ssd_lc_->mark_stale(term);
          } else {
            ssd_hit = true;
            promoted_freq = e->freq;
            promoted_born = e->born;
            promoted_bytes = std::min(e->cached_bytes, meta.list_bytes);
          }
        }
      } else {
        if (const auto* e = lru_lc_->lookup(term, needed, flash, &st)) {
          if (expired(e->born)) {
            stats_.background_flash_time += expire_list(term);
          } else if (stale_list(term, e->born)) {
            *time += flash;
            ++stats_.stale_list_invalidations;
            ++stats_.stale_ssd_list_misses;
            lru_lc_->erase(term);
          } else {
            ssd_hit = true;
            promoted_freq = e->freq;
            promoted_born = e->born;
            promoted_bytes = std::min<Bytes>(e->bytes, meta.list_bytes);
          }
        }
      }
      if (ssd_hit || st == IoStatus::kUncorrectable) {
        breaker_.record(st != IoStatus::kUncorrectable);
      }
      if (st == IoStatus::kUncorrectable) {
        ++stats_.ssd_read_errors;
        *time += flash;  // failed read latency still counts
      }
    }
  }
  Tier served;
  Bytes mem_bytes;
  if (ssd_hit) {
    *time += flash;
    served = Tier::kSsd;
    ++stats_.list_hits_ssd;
    mem_bytes = std::max(promoted_bytes, needed);
  } else {
    // Index-store miss. Cost-based policies read the used prefix (early
    // termination); the traditional baseline fetches and caches whole
    // lists (paper §VII.A: "only part of inverted lists are cached in
    // CBLRU/CBSLRU, the limited cache can hold much more valid data").
    const Bytes fetch_bytes = cost_based() ? needed : meta.list_bytes;
    *time += read_list_from_hdd(term, fetch_bytes);
    served = Tier::kHdd;
    mem_bytes = fetch_bytes;
  }
  // Promote into L1 (QM: "cache the used data in memory if necessary").
  CachedList info;
  info.cached_bytes = std::max<Bytes>(mem_bytes, 1);
  info.full_bytes = meta.list_bytes;
  info.utilization = meta.utilization;
  info.freq = promoted_freq;
  info.sc_blocks =
      formula_sc_blocks(meta.list_bytes, meta.utilization, cfg_.block_bytes);
  info.ev = formula_ev(info.freq, info.sc_blocks);
  info.born = served == Tier::kHdd ? now_ : promoted_born;
  route_list_evictions(mem_lc_.insert(term, info));
  return served;
}

void CacheManager::flush_group(std::span<CachedResult> group) {
  stats_.background_flash_time += ssd_rc_->insert_rb(group);
}

void CacheManager::route_result_evictions(
    std::span<CachedResult> evicted) {
  if (!cfg_.l2) return;  // one-level cache: evictions are simply dropped
  if (breaker_.state() != CircuitBreaker::State::kClosed) {
    // Degraded SSD: don't write into a failing cache; evictions are
    // dropped exactly as in the one-level configuration.
    stats_.breaker_bypassed_inserts += evicted.size();
    return;
  }
  for (auto& e : evicted) {
    if (!cost_based()) {
      stats_.background_flash_time += lru_rc_->insert(std::move(e));
      continue;
    }
    // CBSLRU static partition: the entry is pinned on SSD already.
    if (ssd_rc_->is_static(e.entry.query)) continue;
    // SM: admission bar — rarely used results are not worth flash wear.
    if (e.freq < cfg_.min_result_freq_for_ssd) {
      ++stats_.results_discarded;
      continue;
    }
    // Cancellation: the SSD already holds this entry in replaceable
    // state; revalidate instead of rewriting (Fig. 10 discussion).
    if (ssd_rc_->resurrect(e.entry.query)) continue;
    if (const auto group = wb_.push(std::move(e)); !group.empty()) {
      flush_group(group);
    }
  }
}

void CacheManager::route_list_evictions(
    std::span<const EvictedList> evicted) {
  if (!cfg_.l2) return;
  if (breaker_.state() != CircuitBreaker::State::kClosed) {
    stats_.breaker_bypassed_inserts += evicted.size();
    return;
  }
  for (const EvictedList& e : evicted) {
    if (!cost_based()) {
      // Baseline: flush exactly what was cached, byte-packed and
      // unaligned (the small-random-write behaviour of Fig. 10a).
      stats_.background_flash_time += lru_lc_->insert(
          e.term, e.info.cached_bytes, e.info.freq, e.info.born);
      continue;
    }
    // CBSLRU static partition: the list is pinned on SSD already.
    if (ssd_lc_->is_static(e.term)) continue;
    // SM: Formula 1 sizes the SSD copy; admission is gated either by the
    // sieve filter (SieveStore-style, when configured) or by the paper's
    // Formula 2 + TEV.
    const auto sc = e.info.sc_blocks;
    if (sieve_) {
      if (!sieve_->observe_and_admit(e.term.raw())) {
        ++stats_.lists_discarded;
        continue;
      }
    } else if (formula_ev(e.info.freq, sc) < cfg_.tev) {
      ++stats_.lists_discarded;
      continue;
    }
    const Bytes ssd_bytes =
        std::min<Bytes>(static_cast<Bytes>(sc) * cfg_.block_bytes,
                        e.info.full_bytes);
    stats_.background_flash_time += ssd_lc_->insert(
        e.term, std::max<Bytes>(ssd_bytes, 1), e.info.freq, e.info.born);
  }
}

namespace {

/// Deterministic pairwise overlap model: the fraction of the smaller
/// list's used prefix shared by the pair, hashed into [0.05, 0.30].
double pair_overlap(TermId a, TermId b) {
  std::uint64_t x = IntersectionCache::key(a, b) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 33;
  return 0.05 + 0.25 * static_cast<double>(x & 0xFFFF) / 65535.0;
}

}  // namespace

bool CacheManager::lookup_intersection(TermId a, TermId b, Micros* time) {
  if (!ic_) return false;
  const CachedIntersection* hit = ic_->lookup(a, b);
  if (!hit) return false;
  *time += ram_.access_cost(hit->bytes);
  return true;
}

void CacheManager::insert_intersection(TermId a, TermId b) {
  if (!ic_) return;
  const Bytes na = needed_bytes(index_.term_meta_fast(a));
  const Bytes nb = needed_bytes(index_.term_meta_fast(b));
  const auto bytes = static_cast<Bytes>(
      pair_overlap(a, b) * static_cast<double>(std::min(na, nb)));
  ic_->insert(a, b, std::max<Bytes>(bytes, 64));
}

void CacheManager::insert_result(ResultEntry entry) {
  if (!cfg_.result_cache) return;
  route_result_evictions(mem_rc_.insert(std::move(entry), 1, now_).evicted);
}

void CacheManager::preload_static(
    const LogAnalysis& analysis,
    const std::function<ResultEntry(QueryId)>& make_result) {
  if (cfg_.policy != CachePolicy::kCbslru || !cfg_.l2) return;
  // Static result partition: hottest distinct queries.
  const Bytes rc_static = static_cast<Bytes>(
      cfg_.static_fraction * static_cast<double>(cfg_.ssd_result_capacity));
  const auto max_results =
      static_cast<std::size_t>(rc_static / kResultEntryBytes);
  std::vector<CachedResult> hot;
  for (const auto& [qid, freq] : analysis.queries_by_freq) {
    if (hot.size() >= max_results) break;
    hot.push_back(CachedResult{make_result(qid), freq});
  }
  stats_.background_flash_time += ssd_rc_->preload_static(hot);

  // Static list partition: highest-EV terms.
  const Bytes lc_static = static_cast<Bytes>(
      cfg_.static_fraction * static_cast<double>(cfg_.ssd_list_capacity));
  Bytes budget = lc_static;
  std::vector<std::tuple<TermId, Bytes, std::uint64_t>> lists;
  for (const auto& te : analysis.terms_by_ev) {
    const Bytes bytes = static_cast<Bytes>(te.sc_blocks) * cfg_.block_bytes;
    if (bytes > budget) continue;
    const auto meta = index_.term_meta_fast(te.term);
    lists.emplace_back(te.term, std::min(bytes, meta.list_bytes), te.freq);
    budget -= bytes;
    if (budget < cfg_.block_bytes) break;
  }
  stats_.background_flash_time += ssd_lc_->preload_static(lists);
}

void CacheManager::drain() {
  if (!cost_based() || !cfg_.l2) return;
  auto rest = wb_.drain();
  if (!rest.empty()) flush_group(rest);
}

void CacheManager::set_journal_sink(CacheJournalSink* sink) {
  if (!supports_persistence()) return;
  ssd_rc_->set_journal(sink);
  ssd_lc_->set_journal(sink);
}

CacheImage CacheManager::export_image() const {
  CacheImage image;
  image.logical_now = now_;
  if (!supports_persistence()) return image;
  ssd_rc_->export_image(image.rbs, image.static_rbs);
  ssd_lc_->export_image(image.lists, image.static_lists);
  return image;
}

bool CacheManager::image_fits(const CacheImage& image) const {
  const auto claim = [](std::vector<bool>& used, std::uint32_t id) {
    if (id >= used.size() || used[id]) return false;
    used[id] = true;
    return true;
  };
  std::vector<bool> rb_blocks(result_file_->num_blocks());
  for (const auto* section : {&image.rbs, &image.static_rbs}) {
    for (const RbImage& rb : *section) {
      if (!claim(rb_blocks, rb.cb) ||
          rb.slots.size() > ssd_rc_->results_per_rb()) {
        return false;
      }
      for (const RbSlotImage& slot : rb.slots) {
        if (slot.state > 2) return false;
      }
    }
  }
  std::vector<bool> list_blocks(list_file_->num_blocks());
  std::vector<bool> terms(index_.vocab_size());
  for (const auto* section : {&image.lists, &image.static_lists}) {
    for (const ListEntryImage& e : *section) {
      if (e.blocks.empty() || !claim(terms, e.term.raw())) return false;
      for (const std::uint32_t cb : e.blocks) {
        if (!claim(list_blocks, cb)) return false;
      }
    }
  }
  return true;
}

std::optional<Micros> CacheManager::restore_image(const CacheImage& image) {
  if (!supports_persistence()) return Micros{};
  if (!image_fits(image)) return std::nullopt;
  now_ = image.logical_now;
  Micros t = micros(0);
  t += ssd_rc_->restore_image(image.rbs, image.static_rbs);
  t += ssd_lc_->restore_image(image.lists, image.static_lists);
  return t;
}

}  // namespace ssdse
