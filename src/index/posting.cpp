#include "src/index/posting.hpp"

#include <algorithm>
#include <cmath>

namespace ssdse {

PostingList::PostingList(std::vector<Posting> postings)
    : postings_(std::move(postings)) {
  std::sort(postings_.begin(), postings_.end(),
            [](const Posting& a, const Posting& b) {
              if (a.tf != b.tf) return a.tf > b.tf;
              return a.doc < b.doc;
            });
}

std::span<const Posting> PostingList::prefix(double fraction) const {
  if (postings_.empty() || fraction <= 0.0) return {};
  fraction = std::min(fraction, 1.0);
  auto n = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(postings_.size())));
  n = std::max<std::size_t>(n, 1);
  return {postings_.data(), n};
}

std::size_t PostingList::frontier(std::uint32_t tf_threshold) const {
  // postings_ sorted tf-descending: find first element with tf < threshold.
  auto it = std::lower_bound(
      postings_.begin(), postings_.end(), tf_threshold,
      [](const Posting& p, std::uint32_t t) { return p.tf >= t; });
  return static_cast<std::size_t>(it - postings_.begin());
}

}  // namespace ssdse
