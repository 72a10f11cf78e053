// Bounded top-K selection (DESIGN.md §8): a size-k min-heap whose root
// is the worst retained document, replacing the seed's collect-all +
// std::partial_sort. O(n log k) with no unbounded vector growth; the
// ranking order (score descending, doc id ascending) is total, so the
// selected set and its sorted order are bit-identical to partial_sort's.
#pragma once

#include <algorithm>
#include <vector>

#include "src/engine/result.hpp"

namespace ssdse {

class TopKAccumulator {
 public:
  explicit TopKAccumulator(std::size_t k = kTopK) : k_(k) {}

  /// `a` ranks ahead of `b`: higher score first, ties by doc ascending.
  static bool better(const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  }

  /// Drop accumulated state and set a new bound (scratch reuse between
  /// queries: capacity is retained).
  void reset(std::size_t k) {
    k_ = k;
    heap_.clear();
  }

  void push(const ScoredDoc& d) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(d);
      std::push_heap(heap_.begin(), heap_.end(), better);
      return;
    }
    // Heap front = worst retained; replace it only if `d` ranks ahead.
    if (!better(d, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), better);
    heap_.back() = d;
    std::push_heap(heap_.begin(), heap_.end(), better);
  }

  /// Size the heap for `n` pushes up front: one allocation, which
  /// take_sorted() hands over as the result's storage.
  void reserve(std::size_t n) { heap_.reserve(std::min(n, k_)); }

  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Extract the retained documents best-first. Empties the
  /// accumulator; the returned vector owns its storage.
  std::vector<ScoredDoc> take_sorted() {
    // sort_heap leaves the range ascending under `better`, i.e.
    // best-ranked first — exactly the result-entry order.
    std::sort_heap(heap_.begin(), heap_.end(), better);
    return std::move(heap_);
  }

 private:
  std::size_t k_;
  std::vector<ScoredDoc> heap_;  // min-heap under `better` (front = worst)
};

}  // namespace ssdse
