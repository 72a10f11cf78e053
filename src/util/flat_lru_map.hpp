// Generic O(1) LRU-ordered map, the backbone of every cache in this
// project (DESIGN.md §13). One contiguous slot array doubles as hash
// table (linear probing, power-of-two capacity, backward-shift deletion,
// max load ~0.7) and node storage — the recency list is intrusive,
// linking slot indices instead of heap-allocated list nodes. A probe
// touches one cache line; steady-state churn allocates nothing.
//
// Recency order lives entirely in the intrusive list, which hash layout
// cannot perturb, so eviction order depends only on the op sequence.
//
// The cache policies in src/cache need more than "evict the LRU item":
// CBLRU scans a *Replace-First Region* (a window at the LRU end) and
// picks victims by cost inside it, so the map exposes handle walks from
// either end and erase-by-handle, not only pop_lru().
//
// Lifetimes: a handle (the entry's slot index) and every value pointer
// or reference the map returns stay valid only until the next insert,
// erase, pop_lru or clear on the same map — removal relocates
// probe-chain neighbours and insert may grow the table. Walk read-only,
// then mutate; copy what must outlive the next mutation.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace ssdse {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatLruMap {
 public:
  using Entry = std::pair<K, V>;
  static constexpr std::uint32_t npos = 0xFFFFFFFFu;

  FlatLruMap() : slots_(kMinCapacity), mask_(kMinCapacity - 1) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  bool contains(const K& key) const { return find(key) != npos; }

  /// Find without touching recency.
  V* peek(const K& key) {
    const std::uint32_t i = find(key);
    return i == npos ? nullptr : &slots_[i].value;
  }
  const V* peek(const K& key) const {
    const std::uint32_t i = find(key);
    return i == npos ? nullptr : &slots_[i].value;
  }

  /// Find and move to the MRU position.
  V* touch(const K& key) {
    const std::uint32_t i = find(key);
    if (i == npos) return nullptr;
    unlink(i);
    push_front(i);
    return &slots_[i].value;
  }

  /// Insert (or overwrite) at the MRU position.
  V& insert(const K& key, V value) {
    std::uint32_t i = find(key);
    if (i != npos) {
      slots_[i].value = std::move(value);
      unlink(i);
      push_front(i);
      return slots_[i].value;
    }
    maybe_grow();
    i = probe_empty(key);
    slots_[i].used = true;
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    push_front(i);
    ++size_;
    return slots_[i].value;
  }

  /// Remove a specific key. Returns the value if present.
  std::optional<V> erase(const K& key) {
    const std::uint32_t i = find(key);
    if (i == npos) return std::nullopt;
    V v = std::move(slots_[i].value);
    erase_slot(i);
    return v;
  }

  /// Remove and return the least recently used entry.
  std::optional<Entry> pop_lru() {
    if (tail_ == npos) return std::nullopt;
    const std::uint32_t i = tail_;
    Entry e{slots_[i].key, std::move(slots_[i].value)};
    erase_slot(i);
    return e;
  }

  // --- handle interface (Replace-First-Region scans) -------------------
  // Walk from lru_handle() toward the MRU end via more_recent(), or from
  // mru_handle() toward the LRU end via less_recent(); npos ends a walk.

  [[nodiscard]] std::uint32_t lru_handle() const { return tail_; }
  [[nodiscard]] std::uint32_t mru_handle() const { return head_; }
  [[nodiscard]] std::uint32_t more_recent(std::uint32_t h) const {
    return slots_[h].prev;
  }
  [[nodiscard]] std::uint32_t less_recent(std::uint32_t h) const {
    return slots_[h].next;
  }
  const K& key_at(std::uint32_t h) const { return slots_[h].key; }
  V& value_at(std::uint32_t h) { return slots_[h].value; }
  const V& value_at(std::uint32_t h) const { return slots_[h].value; }

  /// Remove the entry a scan landed on; no re-find by key.
  V erase_handle(std::uint32_t h) {
    V v = std::move(slots_[h].value);
    erase_slot(h);
    return v;
  }

  void clear() {
    slots_.assign(slots_.size(), Slot{});
    head_ = tail_ = npos;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    K key{};
    V value{};
    std::uint32_t prev = npos;  // toward MRU
    std::uint32_t next = npos;  // toward LRU
    bool used = false;
  };

  std::uint32_t home(const K& key) const {
    // Fibonacci mix on top of Hash: std::hash over integers is identity
    // on common stdlibs, and linear probing punishes clustered keys.
    const std::uint64_t h = Hash{}(key) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::uint32_t>(h >> 32) & mask_;
  }

  std::uint32_t find(const K& key) const {
    for (std::uint32_t i = home(key);; i = (i + 1) & mask_) {
      if (!slots_[i].used) return npos;
      if (slots_[i].key == key) return i;
    }
  }

  std::uint32_t probe_empty(const K& key) const {
    std::uint32_t i = home(key);
    while (slots_[i].used) i = (i + 1) & mask_;
    return i;
  }

  void push_front(std::uint32_t i) {
    slots_[i].prev = npos;
    slots_[i].next = head_;
    if (head_ != npos) slots_[head_].prev = i;
    head_ = i;
    if (tail_ == npos) tail_ = i;
  }

  void unlink(std::uint32_t i) {
    const std::uint32_t p = slots_[i].prev;
    const std::uint32_t n = slots_[i].next;
    if (p != npos) slots_[p].next = n; else head_ = n;
    if (n != npos) slots_[n].prev = p; else tail_ = p;
  }

  /// Move a live slot to another (empty) index, patching its recency
  /// neighbours — the delicate step of backward-shift deletion when the
  /// table is also the node storage.
  void relocate(std::uint32_t from, std::uint32_t to) {
    Slot& s = slots_[from];
    slots_[to].key = std::move(s.key);
    slots_[to].value = std::move(s.value);
    slots_[to].prev = s.prev;
    slots_[to].next = s.next;
    slots_[to].used = true;
    if (s.prev != npos) slots_[s.prev].next = to; else head_ = to;
    if (s.next != npos) slots_[s.next].prev = to; else tail_ = to;
    s.used = false;
  }

  /// Backward-shift deletion: close the probe chain by sliding every
  /// displaced successor into the hole, so find() needs no tombstones.
  void erase_slot(std::uint32_t i) {
    unlink(i);
    slots_[i].used = false;
    slots_[i].value = V{};
    --size_;
    std::uint32_t hole = i;
    for (std::uint32_t j = (i + 1) & mask_; slots_[j].used;
         j = (j + 1) & mask_) {
      const std::uint32_t h = home(slots_[j].key);
      // j may slide into the hole iff its home position does not lie
      // strictly inside (hole, j] on the probe circle.
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        relocate(j, hole);
        hole = j;
      }
    }
  }

  void maybe_grow() {
    if ((size_ + 1) * 10 <= slots_.size() * 7) return;
    FlatLruMap bigger;
    bigger.slots_.assign(slots_.size() * 2, Slot{});
    bigger.mask_ = static_cast<std::uint32_t>(bigger.slots_.size() - 1);
    // Rebuild MRU-first: every insert lands at the new front, reversing
    // order — so walk from the LRU end to preserve recency exactly.
    for (std::uint32_t h = tail_; h != npos;) {
      const std::uint32_t next = slots_[h].prev;
      const std::uint32_t slot = bigger.probe_empty(slots_[h].key);
      bigger.slots_[slot].used = true;
      bigger.slots_[slot].key = std::move(slots_[h].key);
      bigger.slots_[slot].value = std::move(slots_[h].value);
      bigger.push_front(slot);
      ++bigger.size_;
      h = next;
    }
    *this = std::move(bigger);
  }

  std::vector<Slot> slots_;
  std::uint32_t mask_;
  std::uint32_t head_ = npos;  // MRU
  std::uint32_t tail_ = npos;  // LRU
  std::size_t size_ = 0;
};

}  // namespace ssdse
