// CacheManager: the paper's central component (Fig. 2), implementing
//  SM — selection management: what is worth caching where (Formula 1/2,
//       TEV admission, result frequency threshold);
//  QM — query management: probe memory, write buffer, SSD, fall back to
//       HDD, and promote on the way back (hybrid inclusion scheme);
//  RM — replacement management: eviction cascades from memory through
//       the write buffer into the SSD caches.
//
// One CacheManager serves one index server. The policy (LRU / CBLRU /
// CBSLRU) selects which L2 machinery is active.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "src/cache/circuit_breaker.hpp"
#include "src/cache/intersection_cache.hpp"
#include "src/cache/lru_ssd_cache.hpp"
#include "src/cache/sieve_filter.hpp"
#include "src/cache/mem_list_cache.hpp"
#include "src/cache/mem_result_cache.hpp"
#include "src/cache/policy.hpp"
#include "src/cache/ssd_cache_file.hpp"
#include "src/cache/ssd_list_cache.hpp"
#include "src/cache/ssd_result_cache.hpp"
#include "src/cache/write_buffer.hpp"
#include "src/index/inverted_index.hpp"
#include "src/storage/device.hpp"
#include "src/storage/ram.hpp"
#include "src/workload/log_analysis.hpp"

namespace ssdse {

struct CacheManagerStats {
  std::uint64_t result_lookups = 0;
  std::uint64_t result_hits_mem = 0;  // L1 + write buffer
  std::uint64_t result_hits_ssd = 0;
  std::uint64_t list_lookups = 0;
  std::uint64_t list_hits_mem = 0;
  std::uint64_t list_hits_ssd = 0;
  std::uint64_t hdd_list_reads = 0;
  std::uint64_t results_discarded = 0;  // below the SSD admission bar
  std::uint64_t lists_discarded = 0;    // EV < TEV
  std::uint64_t results_expired = 0;    // TTL misses (dynamic scenario)
  std::uint64_t lists_expired = 0;
  Micros background_flash_time = micros(0);     // flush/eviction writes (+ GC)

  // Graceful degradation (DESIGN.md §10).
  std::uint64_t ssd_read_errors = 0;  // uncorrectable SSD-cache reads
  std::uint64_t hdd_read_errors = 0;  // uncorrectable index-store reads
  std::uint64_t breaker_bypassed_probes = 0;   // lookups skipped while open
  std::uint64_t breaker_bypassed_inserts = 0;  // evictions dropped, not flushed

  // Live-index coherence (DESIGN.md §12): cached copies born at or
  // before a term's last mutation epoch are stale; a stale hit is NOT a
  // hit — it is dropped (or flash-marked) and the query falls through
  // exactly like a miss, so per-tier hits never exceed probes.
  std::uint64_t stale_result_invalidations = 0;  // dropped, any tier
  std::uint64_t stale_list_invalidations = 0;
  std::uint64_t stale_ssd_result_misses = 0;  // subset found on flash
  std::uint64_t stale_ssd_list_misses = 0;

  [[nodiscard]] double result_hit_ratio() const {
    return result_lookups ? static_cast<double>(result_hits_mem +
                                                result_hits_ssd) /
                                static_cast<double>(result_lookups)
                          : 0.0;
  }
  [[nodiscard]] double list_hit_ratio() const {
    return list_lookups ? static_cast<double>(list_hits_mem +
                                              list_hits_ssd) /
                              static_cast<double>(list_lookups)
                        : 0.0;
  }
  /// Combined hit ratio over all cacheable requests (Fig. 14 metric).
  [[nodiscard]] double hit_ratio() const {
    const auto lookups = result_lookups + list_lookups;
    const auto hits = result_hits_mem + result_hits_ssd + list_hits_mem +
                      list_hits_ssd;
    return lookups ? static_cast<double>(hits) /
                         static_cast<double>(lookups)
                   : 0.0;
  }
};

class CacheManager {
 public:
  /// `ssd` may be null when cfg.l2 == false (one-level configuration).
  CacheManager(const CacheConfig& cfg, Ssd* ssd,
               StorageDevice& index_store, RamDevice& ram,
               IndexView& index);

  /// QM, result side. On a hit `*tier_out` says where it came from and
  /// `time` accumulates the access cost. SSD hits are promoted into L1.
  /// The returned entry is valid until the next call into this manager;
  /// copy it before serving another query.
  /// `terms` are the query's terms, used for live-index coherence: a
  /// cached result born at or before any term's mutation epoch is stale
  /// and treated as a miss. Pass an empty span for churn-free callers.
  const ResultEntry* lookup_result(QueryId qid, std::span<const TermId> terms,
                                   Tier* tier_out, Micros* time);
  const ResultEntry* lookup_result(QueryId qid, Tier* tier_out,
                                   Micros* time) {
    return lookup_result(qid, {}, tier_out, time);
  }

  /// Live-index coherence: record that `terms` mutated at logical time
  /// `tick`. Cached results/lists born at or before the max recorded
  /// tick of any involved term become stale. Idempotent and monotone;
  /// the first call arms the (otherwise free) staleness checks.
  void note_term_mutations(std::span<const TermId> terms, std::uint64_t tick);

  /// Live-index coherence: record that the corpus doc count changed at
  /// logical time `tick` (an ingest; tombstone deletes keep doc slots,
  /// so N is stable). A doc-count change re-weights every term's idf,
  /// so ALL cached result scores computed at or before `tick` are stale
  /// — term epochs cannot see this, hence the separate global epoch.
  /// List caches are unaffected: postings do not depend on N.
  void note_doc_count_change(std::uint64_t tick);

  /// QM, list side: returns the tier that served the (partial) list and
  /// accumulates the access cost; misses read the HDD index and promote.
  Tier fetch_list(TermId term, Micros* time);

  /// RM entry point: a freshly computed result enters L1; evictions
  /// cascade to the SSD per policy. Flash write time is accounted as
  /// background (see stats().background_flash_time).
  void insert_result(ResultEntry entry);

  /// Three-level extension: probe the intersection cache for a term
  /// pair. A hit covers *both* terms' list demand. Returns false when
  /// the level is disabled or on a miss.
  bool lookup_intersection(TermId a, TermId b, Micros* time);
  /// Admit the pair's intersection after scoring computed it.
  void insert_intersection(TermId a, TermId b);

  /// CBSLRU static preload from log analysis. `make_result` materializes
  /// the result entry of a distinct query (the offline batch job).
  void preload_static(const LogAnalysis& analysis,
                      const std::function<ResultEntry(QueryId)>& make_result);

  /// Flush the write buffer (barrier; e.g. end of experiment).
  void drain();

  // Persistence & warm restart (src/recovery). Only the cost-based L2
  // machinery persists: the LRU baseline's entry-granular SSD writes
  // have no aligned-record invariant to journal against.
  [[nodiscard]] bool supports_persistence() const { return cfg_.l2 && cost_based(); }
  /// Register the journal sink on both SSD caches (null to detach).
  void set_journal_sink(CacheJournalSink* sink);
  /// Snapshot the full SSD cache metadata (both caches + TTL clock).
  [[nodiscard]] CacheImage export_image() const;
  /// Warm restart: rebuild both SSD caches and the cache-file block
  /// states from a recovered image. Must be called before any traffic.
  /// Returns the adoption flash time (recovery work, not query time).
  [[nodiscard]] Micros restore_image(const CacheImage& image);

  /// Advance the logical clock (one tick per query). Only needed when
  /// cfg.ttl_queries > 0 (the dynamic scenario of paper §IV.B).
  void advance_time() { ++now_; }
  [[nodiscard]] std::uint64_t now() const { return now_; }

  [[nodiscard]] const CacheManagerStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }
  [[nodiscard]] CachePolicy policy() const { return cfg_.policy; }

  /// SSD-cache circuit breaker (inert unless flash reads start failing).
  [[nodiscard]] const CircuitBreaker& breaker() const { return breaker_; }

  // Introspection for tests / benches.
  [[nodiscard]] const MemResultCache& mem_results() const { return mem_rc_; }
  [[nodiscard]] const MemListCache& mem_lists() const { return mem_lc_; }
  [[nodiscard]] const SsdResultCache* ssd_results() const { return ssd_rc_.get(); }
  [[nodiscard]] const SsdListCache* ssd_lists() const { return ssd_lc_.get(); }
  [[nodiscard]] const LruSsdResultCache* lru_ssd_results() const { return lru_rc_.get(); }
  [[nodiscard]] const LruSsdListCache* lru_ssd_lists() const { return lru_lc_.get(); }
  [[nodiscard]] const WriteBuffer& write_buffer() const { return wb_; }
  [[nodiscard]] const IntersectionCache* intersections() const { return ic_.get(); }
  [[nodiscard]] const SieveFilter* sieve() const { return sieve_.get(); }

 private:
  [[nodiscard]] bool cost_based() const { return cfg_.policy != CachePolicy::kLru; }
  /// TTL check against the logical clock (paper §IV.B).
  bool expired(std::uint64_t born) const {
    return cfg_.ttl_queries > 0 && now_ > born + cfg_.ttl_queries;
  }
  /// Drop every cached copy of a stale result / list.
  void expire_result(QueryId qid);
  [[nodiscard]] Micros expire_list(TermId term);
  /// Coherence staleness: the copy was born at or before the term's
  /// last mutation epoch. `<=` (not `<`) — a mutation and an insert at
  /// the same tick conservatively invalidate, keeping replay exact.
  [[nodiscard]] bool stale_list(TermId term, std::uint64_t born) const {
    if (!coherence_) return false;
    const auto it = term_epoch_.find(term);
    return it != term_epoch_.end() && born <= it->second;
  }
  [[nodiscard]] bool stale_result(std::span<const TermId> terms,
                                  std::uint64_t born) const {
    if (!coherence_) return false;
    // Ingests change N and therefore every idf; any result computed at
    // or before the last doc-count change is stale regardless of terms.
    if (doc_count_armed_ && born <= doc_count_epoch_) return true;
    for (const TermId t : terms) {
      if (stale_list(t, born)) return true;
    }
    return false;
  }
  /// Drop every cached copy of `qid` without counting a TTL expiry.
  void drop_result_copies(QueryId qid);
  /// Expected bytes a query needs from a term's list (PU x SI).
  Bytes needed_bytes(const TermMeta& meta) const;
  /// HDD read of a list prefix with skipped-read segmentation (§III).
  [[nodiscard]] Micros read_list_from_hdd(TermId term, Bytes bytes);
  void route_result_evictions(std::vector<CachedResult> evicted);
  void route_list_evictions(std::vector<EvictedList> evicted);
  void flush_group(std::vector<CachedResult> group);
  /// Promote a result into L1 and return a pointer good for serving the
  /// current query: the L1 copy when admitted (valid until the next L1
  /// insert or erase — the eviction cascade only writes the write buffer
  /// and the SSD tiers), else a scratch copy taken before the cascade
  /// consumes the bounced entry (degenerate L1).
  const ResultEntry* promote_result(ResultEntry entry, std::uint64_t freq,
                                    std::uint64_t born);

  CacheConfig cfg_;
  Ssd* ssd_;
  StorageDevice& index_store_;
  RamDevice& ram_;
  IndexView& index_;

  MemResultCache mem_rc_;
  MemListCache mem_lc_;
  WriteBuffer wb_;
  std::unique_ptr<IntersectionCache> ic_;  // three-level extension
  std::unique_ptr<SieveFilter> sieve_;     // SieveStore-style admission

  // CBLRU / CBSLRU machinery.
  std::unique_ptr<SsdCacheFile> result_file_;
  std::unique_ptr<SsdCacheFile> list_file_;
  std::unique_ptr<SsdResultCache> ssd_rc_;
  std::unique_ptr<SsdListCache> ssd_lc_;

  // LRU baseline machinery.
  std::unique_ptr<LruSsdResultCache> lru_rc_;
  std::unique_ptr<LruSsdListCache> lru_lc_;

  CircuitBreaker breaker_;

  std::uint64_t now_ = 0;  // logical clock (queries)
  // Live-index coherence epochs: term -> logical time of its last
  // mutation. Never iterated (point lookups only), so unordered is
  // determinism-safe. Empty (and skipped entirely) until the first
  // note_term_mutations call.
  bool coherence_ = false;
  std::unordered_map<TermId, std::uint64_t> term_epoch_;
  // Tick of the last doc-count change (ingest). Armed separately so a
  // born==0 entry is not spuriously stale before the first ingest.
  bool doc_count_armed_ = false;
  std::uint64_t doc_count_epoch_ = 0;
  /// Serving copy for promotions the degenerate (zero-entry) L1 bounced;
  /// valid until the next promote_result call.
  ResultEntry promoted_scratch_;
  CacheManagerStats stats_;
};

}  // namespace ssdse
