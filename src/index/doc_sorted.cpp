#include "src/index/doc_sorted.hpp"

namespace ssdse {

void DocSortedStore::reserve(std::size_t num_terms,
                             std::size_t total_postings) {
  postings_.reserve(total_postings);
  posting_off_.reserve(num_terms + 1);
  idf_.reserve(num_terms);
}

void DocSortedStore::add_list(std::span<const Posting> doc_sorted,
                              double idf) {
  postings_.insert(postings_.end(), doc_sorted.begin(), doc_sorted.end());
  posting_off_.push_back(postings_.size());
  idf_.push_back(idf);
}

}  // namespace ssdse
