#include "src/index/posting.hpp"

#include <algorithm>

namespace ssdse {

PostingList::PostingList(std::vector<Posting> postings)
    : postings_(std::move(postings)) {
  if (!std::is_sorted(postings_.begin(), postings_.end(), by_rank)) {
    std::sort(postings_.begin(), postings_.end(), by_rank);
  }
}

}  // namespace ssdse
