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

/// The order of a PostingList: descending tf, ties by ascending doc id.
/// Total over postings of distinct docs, so any two ways of producing
/// it (a sort, a merge) agree element for element.
inline constexpr auto by_rank = [](const Posting& a, const Posting& b) {
  if (a.tf != b.tf) return a.tf > b.tf;
  return a.doc < b.doc;
};

/// Copy a list in by_rank order into `by_doc`, in doc-id order. A
/// ranked list is one doc-ascending run per tf, so merging the runs in
/// turn restores doc order without a sort.
void to_doc_order(std::span<const Posting> ranked,
                  std::vector<Posting>& by_doc);

class PostingList {
 public:
  PostingList() = default;
  /// Takes postings in any order; sorts by descending tf (ties by doc id
  /// ascending) unless they already are in that order.
  explicit PostingList(std::vector<Posting> postings);

  [[nodiscard]] std::size_t size() const { return postings_.size(); }
  [[nodiscard]] bool empty() const { return postings_.empty(); }
  [[nodiscard]] Bytes bytes() const { return size() * kPostingBytes; }
  [[nodiscard]] std::span<const Posting> postings() const { return postings_; }
  const Posting& operator[](std::size_t i) const { return postings_[i]; }

 private:
  std::vector<Posting> postings_;
};

}  // namespace ssdse
