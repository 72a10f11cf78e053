#include "src/engine/daat.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

namespace ssdse {

namespace {

/// Smoothed DAAT idf, log(1 + N / (df + 1)).
double daat_idf(double n_docs, std::size_t df) {
  return std::log(1.0 + n_docs / (static_cast<double>(df) + 1.0));
}

}  // namespace

DaatIndex::DaatIndex(const MaterializedIndex& index)
    : index_(index), generation_(index.generation()) {
  const double n_docs = static_cast<double>(index.base_docs());
  std::vector<Posting> by_doc;
  for (TermId t{}; t.raw() < index.vocab_size(); ++t) {
    to_doc_order(index.postings(t)->postings(), by_doc);
    doc_sorted_.add_list(by_doc, daat_idf(n_docs, by_doc.size()));
  }
}

void DaatIndex::check_current() const {
  if (index_.generation() != generation_) {
    throw std::logic_error(
        "DaatIndex: the index merged since this was built; rebuild it");
  }
}

bool DaatIndex::live_doc_sorted(TermId t,
                                std::vector<Posting>& scratch) const {
  const LiveOverlay* overlay = index_.overlay();
  if (overlay == nullptr || !overlay->term_dirty(t)) return false;
  scratch.clear();
  for (const Posting& p : doc_sorted_.view(t).postings()) {
    if (!overlay->is_deleted(p.doc)) scratch.push_back(p);
  }
  // Live ids are all >= base_docs() and the segment stores them
  // doc-ascending, so appending preserves doc order.
  overlay->collect_live(t, scratch);
  return true;
}

ResultEntry DaatProcessor::intersect(const DaatIndex& daat,
                                     const Query& query,
                                     DaatStats* stats) {
  daat.check_current();
  ResultEntry out;
  out.query = query.id;
  if (query.terms.empty()) return out;

  // Borrow the precomputed doc-sorted views — no copy, no sort. The
  // shortest list drives the loop.
  const std::size_t n = query.terms.size();
  views_.clear();
  const LiveOverlay* overlay = daat.index().overlay();
  if (overlay == nullptr || overlay->clean()) {
    // Zero-churn fast path: bit-identical to a build with no overlay.
    for (TermId t : query.terms) views_.push_back(daat.doc_sorted(t));
  } else {
    // Churn path: dirty terms get their current postings materialized
    // into scratch; clean terms keep their arena slice. Either way the
    // idf is refreshed, since N already counts the live doc slots.
    const double n_docs = static_cast<double>(daat.index().num_docs());
    if (scratch_.size() < n) scratch_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const TermId t = query.terms[i];
      const std::span<const Posting> p =
          daat.live_doc_sorted(t, scratch_[i])
              ? std::span<const Posting>(scratch_[i])
              : daat.doc_sorted(t).postings();
      views_.emplace_back(p, daat_idf(n_docs, p.size()));
    }
  }
  order_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return views_[a].size() < views_[b].size();
            });
  if (views_[order_[0]].empty()) return out;

  cursor_.assign(n, 0);
  top_docs_.reset(top_k_);
  std::uint64_t matched = 0, touched = 0;

  const DocSortedView& driver = views_[order_[0]];
  const double driver_idf = driver.idf();
  for (std::size_t dpos = 0; dpos < driver.size();) {
    const DocId candidate = driver[dpos].doc;
    ++touched;
    double score = std::log(1.0 + driver[dpos].tf) * driver_idf;
    bool all = true;
    DocId next_candidate = candidate + 1;
    for (std::size_t k = 1; k < n && all; ++k) {
      const DocSortedView& list = views_[order_[k]];
      std::size_t& cur = cursor_[order_[k]];
      cur = list.advance(cur, candidate);
      ++touched;
      if (cur >= list.size()) {
        // This list is exhausted: no further candidate can match.
        dpos = driver.size();
        all = false;
        break;
      }
      if (list[cur].doc != candidate) {
        next_candidate = list[cur].doc;
        all = false;
      } else {
        score += std::log(1.0 + list[cur].tf) * list.idf();
      }
    }
    if (dpos >= driver.size()) break;
    if (all) {
      ++matched;
      top_docs_.push(ScoredDoc{candidate, static_cast<float>(score)});
      ++dpos;
    } else {
      // Leap the driver to the blocking list's doc id.
      dpos = driver.advance(dpos, next_candidate);
    }
  }

  if (stats) {
    stats->docs_scored = matched;
    stats->postings_touched = touched;
  }
  out.docs = top_docs_.take_sorted();
  return out;
}

}  // namespace ssdse
