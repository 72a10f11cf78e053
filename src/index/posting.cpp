#include "src/index/posting.hpp"

#include <algorithm>

namespace ssdse {

PostingList::PostingList(std::vector<Posting> postings)
    : postings_(std::move(postings)) {
  if (!std::is_sorted(postings_.begin(), postings_.end(), by_rank)) {
    std::sort(postings_.begin(), postings_.end(), by_rank);
  }
}

void to_doc_order(std::span<const Posting> ranked,
                  std::vector<Posting>& by_doc) {
  by_doc.assign(ranked.begin(), ranked.end());
  for (auto run = by_doc.begin(); run != by_doc.end();) {
    const auto next = std::partition_point(
        run, by_doc.end(), [&](const Posting& p) { return p.tf == run->tf; });
    std::inplace_merge(
        by_doc.begin(), run, next,
        [](const Posting& a, const Posting& b) { return a.doc < b.doc; });
    run = next;
  }
}

}  // namespace ssdse
