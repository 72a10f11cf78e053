#include "src/index/doc_sorted.hpp"

namespace ssdse {

void DocSortedStore::add_list(std::span<const Posting> doc_sorted,
                              double idf) {
  postings_.insert(postings_.end(), doc_sorted.begin(), doc_sorted.end());
  posting_off_.push_back(postings_.size());
  idf_.push_back(idf);
}

}  // namespace ssdse
