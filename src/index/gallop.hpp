// The DAAT engine's one next-doc search (DESIGN.md §8, §13).
//
// Conjunctive processing keeps asking "where, at or after my cursor, is
// the first doc id >= target?". Over a sorted in-memory array the
// standard skip-free answer is an exponential ("galloping") search from
// the cursor (Pibiri & Venturini, NextGEQ): probe cursor, cursor+1,
// cursor+3, cursor+7, ... until a key reaches the target, then
// binary-search the last stride. A move of d positions costs O(log d)
// probes, so the short hops that dominate an intersection stay cheap
// and long leaps need no precomputed skip table.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "src/util/types.hpp"

namespace ssdse {

/// Smallest index i >= `from` with `a[i].*key >= target`, or a.size()
/// if there is none. `a` must be ascending in `key`.
template <class T>
std::size_t gallop(std::span<const T> a, std::size_t from, DocId target,
                   DocId T::*key) {
  if (from >= a.size()) return a.size();
  std::size_t lo = from;  // every index in [from, lo) is below target
  std::size_t probe = from;
  for (std::size_t stride = 1; probe < a.size() && a[probe].*key < target;
       stride *= 2) {
    lo = probe + 1;
    probe += stride;
  }
  const auto last = a.subspan(lo, std::min(probe, a.size()) - lo);
  const auto it = std::partition_point(
      last.begin(), last.end(), [&](const T& x) { return x.*key < target; });
  return lo + static_cast<std::size_t>(it - last.begin());
}

}  // namespace ssdse
