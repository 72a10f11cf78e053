// Postings and frequency-sorted posting lists.
//
// Following the filtered vector model the paper adopts from Saraiva et
// al. (§VI): each list is sorted by descending term frequency, so query
// processing reads a *prefix* of the list and terminates early — the
// origin of partial-list caching and of "skipped reads" in the I/O
// trace (§III).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/util/types.hpp"

namespace ssdse {

struct Posting {
  DocId doc{};
  std::uint32_t tf = 0;  // term frequency in doc

  friend bool operator==(const Posting&, const Posting&) = default;
};

/// On-disk size model: 8 bytes per posting (doc id + tf, lightly
/// compressed) — used consistently by the layout and the caches.
constexpr Bytes kPostingBytes = 8;

class PostingList {
 public:
  PostingList() = default;
  /// Takes postings in any order; sorts by descending tf (ties by doc id
  /// ascending).
  explicit PostingList(std::vector<Posting> postings);

  [[nodiscard]] std::size_t size() const { return postings_.size(); }
  [[nodiscard]] bool empty() const { return postings_.empty(); }
  [[nodiscard]] Bytes bytes() const { return size() * kPostingBytes; }
  [[nodiscard]] std::span<const Posting> postings() const { return postings_; }
  const Posting& operator[](std::size_t i) const { return postings_[i]; }

  /// Prefix holding the `fraction` highest-tf postings (>= 1 posting for
  /// a non-empty list and fraction > 0).
  std::span<const Posting> prefix(double fraction) const;

  /// First index whose tf < threshold (the early-termination frontier);
  /// postings_ is tf-descending so this is a binary search.
  std::size_t frontier(std::uint32_t tf_threshold) const;

 private:
  std::vector<Posting> postings_;
};

}  // namespace ssdse
