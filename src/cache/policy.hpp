// Cache policy selection and shared configuration for the two-level
// (memory + SSD) hierarchy.
#pragma once

#include <cstdint>
#include <string>

#include "src/cache/circuit_breaker.hpp"
#include "src/util/types.hpp"

namespace ssdse {

enum class CachePolicy : std::uint8_t {
  kLru,     // baseline: whole-entry caching, LRU everywhere, direct
            // entry-granular SSD writes (small random writes)
  kCblru,   // paper: cost-based LRU — EV selection, RB assembly,
            // working/replace-first regions, state-aware overwrite
  kCbslru,  // CBLRU + static partition preloaded from log analysis
};

inline const char* to_string(CachePolicy p) {
  switch (p) {
    case CachePolicy::kLru: return "LRU";
    case CachePolicy::kCblru: return "CBLRU";
    case CachePolicy::kCbslru: return "CBSLRU";
  }
  return "?";
}

enum class Tier : std::uint8_t { kMemory, kSsd, kHdd };

inline const char* to_string(Tier t) {
  switch (t) {
    case Tier::kMemory: return "memory";
    case Tier::kSsd: return "SSD";
    case Tier::kHdd: return "HDD";
  }
  return "?";
}

struct CacheConfig {
  CachePolicy policy = CachePolicy::kCblru;

  /// Feature switches for the paper's ablations: "1LC(R)" = result cache
  /// only, no L2; "2LC(RI)" = everything on (Figs. 15-18).
  bool result_cache = true;
  bool list_cache = true;
  bool l2 = true;  // SSD level present

  /// L1 (memory) capacities. Paper §VII.A: RC gets 20 %, IC 80 % of the
  /// memory cache budget.
  Bytes mem_result_capacity = 4 * MiB;
  Bytes mem_list_capacity = 16 * MiB;

  /// L2 (SSD) capacities. Paper Fig. 16: SSD RC = 10x memory RC,
  /// SSD IC = 100x memory IC.
  Bytes ssd_result_capacity = 40 * MiB;
  Bytes ssd_list_capacity = 1600 * MiB;

  /// 128 KiB cache block == one flash block (SB of Formula 1).
  Bytes block_bytes = 128 * KiB;

  /// Window size W of the Replace-First Region (Figs. 11/13).
  std::uint32_t replace_window = 8;

  /// TEV: lists with EV below this are discarded instead of flushed to
  /// SSD (Fig. 4). 0 disables the filter.
  double tev = 0.0;
  /// Results evicted from memory with access frequency below this are
  /// not flushed to SSD.
  std::uint64_t min_result_freq_for_ssd = 2;

  /// CBSLRU: fraction of each SSD cache managed as the static partition.
  double static_fraction = 0.5;

  /// SieveStore-style selective admission (paper ref [21]): a list must
  /// be evicted-and-missed this many times before earning SSD space.
  /// 0/1 = off; when set (>1) it replaces the TEV filter — the two are
  /// alternative selectivity mechanisms (bench/ablation_cache_params).
  std::uint32_t sieve_threshold = 0;

  /// Three-level caching (paper §VIII future work, after Long & Suel):
  /// memory capacity for cached posting-list intersections. 0 disables
  /// the level (the paper's evaluated two-level configuration).
  Bytes intersection_capacity = 0;

  /// Dynamic scenario (paper §IV.B): cached data older than this many
  /// queries is considered stale and re-read from the index store on
  /// access. 0 = static scenario (the paper's evaluation setting).
  std::uint64_t ttl_queries = 0;

  /// Graceful degradation (DESIGN.md §10): circuit breaker over the SSD
  /// cache tier's flash-read outcomes. Inert with no read errors.
  CircuitBreakerConfig breaker;

  /// Result entries assembled per 128 KiB result block (6 x 20 KiB).
  [[nodiscard]] std::uint32_t results_per_rb() const {
    return static_cast<std::uint32_t>(block_bytes / kResultEntrySlotBytes);
  }
  /// Slot pitch of one result entry inside an RB (20 KiB rounded to a
  /// whole number of 2 KiB pages -> 10 pages).
  static constexpr Bytes kResultEntrySlotBytes = 20 * KiB;
};

}  // namespace ssdse
