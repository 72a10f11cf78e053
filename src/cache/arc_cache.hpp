// ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).
//
// Included as a strong general-purpose point of comparison for the
// paper's L1 policies (bench/ablation_l1_policy): ARC balances recency
// (T1) against frequency (T2) with ghost lists (B1/B2) steering the
// adaptation parameter p, and needs no workload-specific tuning — the
// question is how close the paper's EV-based scheme gets with its
// domain knowledge (list sizes, utilization) versus ARC without it.
//
// Classic fixed-size-entry formulation: capacity counts entries.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/util/flat_lru_map.hpp"

namespace ssdse {

struct ArcStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t ghost_b1_hits = 0;  // recency ghost hits (grow T1)
  std::uint64_t ghost_b2_hits = 0;  // frequency ghost hits (grow T2)

  [[nodiscard]] double hit_ratio() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
  }
};

template <typename K>
class ArcCache {
 public:
  explicit ArcCache(std::size_t capacity)
      : capacity_(capacity ? capacity : 1) {}

  /// Access `key`: returns true on a cache hit. Misses admit the key
  /// (ARC admits on first access; the adaptation decides what to evict).
  bool access(const K& key) {
    // Case I: hit in T1 or T2 -> move to MRU of T2.
    if (t1_.contains(key)) {
      t1_.erase(key);
      t2_.insert(key, true);
      ++stats_.hits;
      return true;
    }
    if (t2_.touch(key) != nullptr) {
      ++stats_.hits;
      return true;
    }
    ++stats_.misses;
    // Case II: ghost hit in B1 -> favour recency (grow p).
    if (b1_.contains(key)) {
      ++stats_.ghost_b1_hits;
      const std::size_t delta =
          b1_.size() >= b2_.size() ? 1 : b2_.size() / b1_.size();
      p_ = std::min(p_ + delta, capacity_);
      replace(/*in_b2=*/false);
      b1_.erase(key);
      t2_.insert(key, true);
      return false;
    }
    // Case III: ghost hit in B2 -> favour frequency (shrink p).
    if (b2_.contains(key)) {
      ++stats_.ghost_b2_hits;
      const std::size_t delta =
          b2_.size() >= b1_.size() ? 1 : b1_.size() / b2_.size();
      p_ = delta > p_ ? 0 : p_ - delta;
      replace(/*in_b2=*/true);
      b2_.erase(key);
      t2_.insert(key, true);
      return false;
    }
    // Case IV: complete miss.
    if (t1_.size() + b1_.size() == capacity_) {
      if (t1_.size() < capacity_) {
        b1_.pop_lru();
        replace(false);
      } else {
        t1_.pop_lru();  // discard LRU of T1 entirely (B1 is full of T1)
      }
    } else if (t1_.size() + b1_.size() < capacity_ &&
               t1_.size() + t2_.size() + b1_.size() + b2_.size() >=
                   capacity_) {
      if (t1_.size() + t2_.size() + b1_.size() + b2_.size() ==
          2 * capacity_) {
        b2_.pop_lru();
      }
      replace(false);
    }
    t1_.insert(key, true);
    return false;
  }

  bool contains(const K& key) const {
    return t1_.contains(key) || t2_.contains(key);
  }
  [[nodiscard]] std::size_t size() const { return t1_.size() + t2_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t recency_size() const { return t1_.size(); }    // T1
  [[nodiscard]] std::size_t frequency_size() const { return t2_.size(); }  // T2
  [[nodiscard]] std::size_t p() const { return p_; }
  [[nodiscard]] const ArcStats& stats() const { return stats_; }

 private:
  /// REPLACE from the paper: evict LRU of T1 into B1 or LRU of T2 into
  /// B2 depending on p and where the ghost hit came from.
  void replace(bool in_b2) {
    if (!t1_.empty() &&
        (t1_.size() > p_ || (in_b2 && t1_.size() == p_))) {
      auto victim = t1_.pop_lru();
      b1_.insert(victim->first, true);
    } else if (!t2_.empty()) {
      auto victim = t2_.pop_lru();
      b2_.insert(victim->first, true);
    }
  }

  std::size_t capacity_;
  std::size_t p_ = 0;  // target size of T1
  FlatLruMap<K, bool> t1_, t2_;  // resident: recency / frequency
  FlatLruMap<K, bool> b1_, b2_;  // ghosts (keys only)
  ArcStats stats_;
};

}  // namespace ssdse
