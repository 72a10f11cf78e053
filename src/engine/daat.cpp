#include "src/engine/daat.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

namespace ssdse {

namespace {

/// Smoothed DAAT idf, log(1 + N / (df + 1)).
double daat_idf(double n_docs, std::size_t df) {
  return std::log(1.0 + n_docs / (static_cast<double>(df) + 1.0));
}

CodecKind block_kind(const MaterializedIndex& index) {
  const CodecKind kind = codec_kind(index.codec_name());
  return is_block_codec(kind) ? kind : CodecKind::kBlockPacked;
}

}  // namespace

DaatIndex::DaatIndex(const MaterializedIndex& index)
    : index_(index),
      generation_(index.generation()),
      blocks_(block_kind(index)) {
  const double n_docs = static_cast<double>(index.base_docs());
  std::vector<Posting> by_doc;
  for (TermId t{}; t.raw() < index.vocab_size(); ++t) {
    to_doc_order(index.postings(t)->postings(), by_doc);
    const double idf = daat_idf(n_docs, by_doc.size());
    doc_sorted_.add_list(by_doc, idf);
    blocks_.add_list(by_doc, idf);
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

// --- MaxScoreDaatProcessor ----------------------------------------------
//
// Bit-exactness contract with DaatProcessor (the oracle), relied on by
// the equivalence suites and the codec_pruning results_identical gate:
//  * Term order: the same size-ascending std::sort over the same input
//    permutation — scores are accumulated in double in term order, so
//    the order must match for the float results to match bit-for-bit.
//  * Scores: identical expressions (std::log(1.0 + tf) * idf, summed
//    driver-first) over identical idf doubles — the block store carries
//    the same idf the doc-sorted store does, and the churn path
//    recomputes it with the same formula the oracle uses.
//  * Pruning soundness: a range is leapt only when the heap holds k
//    docs AND the bound — per-term block max weight x idf, accumulated
//    in the same order as a real score — rounds to a float STRICTLY
//    below the heap's worst float score. Every term contribution is
//    <= its bound term in double (max over exact weights, monotone
//    rounding under x idf), and double addition is monotone per
//    partial sum, so any pruned doc's float score is <= float(bound)
//    < threshold: it could not have displaced anything, and ties (which
//    break by doc id) are unreachable because the compare is strict.
//  * Heap equality: the oracle pushes sub-threshold matches too, but
//    those pushes are no-ops on a full heap, so skipping them leaves
//    the heap state — and thus every later tie-break — unchanged.

const Posting& MaxScoreDaatProcessor::at(Cursor& c, std::uint32_t pos) {
  if (c.flat != nullptr) return c.flat[pos];
  const std::uint32_t b = pos / kBlockPostings;
  if (b != c.decoded) {
    c.view.decode_block(b, c.buf);
    c.decoded = b;
    ++pruning_.blocks_decoded;
  }
  return c.buf[pos % kBlockPostings];
}

std::uint32_t MaxScoreDaatProcessor::advance(Cursor& c, std::uint32_t from,
                                             DocId target) {
  if (from >= c.size) return c.size;
  if (c.flat != nullptr) {
    return static_cast<std::uint32_t>(
        gallop(std::span(c.flat, c.size), from, target, &Posting::doc));
  }
  const std::uint32_t b = from / kBlockPostings;
  const std::uint32_t tb = c.view.find_block(b, target);
  if (tb >= c.view.num_blocks()) return c.size;
  std::uint32_t rel;
  if (tb != b) {
    pruning_.blocks_skipped += tb - b - 1;  // blocks leapt, never decoded
    rel = 0;
  } else {
    rel = from % kBlockPostings;
  }
  if (tb != c.decoded) {
    c.view.decode_block(tb, c.buf);
    c.decoded = tb;
    ++pruning_.blocks_decoded;
  }
  // find_block guarantees this block's last doc id >= target, so the
  // scan terminates inside the block.
  while (c.buf[rel].doc < target) ++rel;
  return tb * kBlockPostings + rel;
}

ResultEntry MaxScoreDaatProcessor::intersect(const DaatIndex& daat,
                                             const Query& query,
                                             DaatStats* stats) {
  daat.check_current();
  ResultEntry out;
  out.query = query.id;
  if (query.terms.empty()) return out;

  const std::size_t n = query.terms.size();
  if (cursors_.size() < n) cursors_.resize(n);
  if (block_buf_.size() < n) block_buf_.resize(n);
  const LiveOverlay* overlay = daat.index().overlay();
  const bool churned = overlay != nullptr && !overlay->clean();
  const double n_docs = static_cast<double>(daat.index().num_docs());
  if (churned && scratch_.size() < n) scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TermId t = query.terms[i];
    Cursor& c = cursors_[i];
    block_buf_[i].resize(kBlockPostings);
    c.pos = 0;
    c.decoded = kNoBlock;
    c.shallow = 0;
    c.buf = block_buf_[i].data();
    if (churned && daat.live_doc_sorted(t, scratch_[i])) {
      // Dirty term: its stored blocks (and their max weights) no longer
      // describe the current postings — bypass them entirely. The
      // re-materialized list gets an exact max weight computed here, so
      // pruning stays safe under churn.
      const std::vector<Posting>& s = scratch_[i];
      c.view = BlockPostingView();
      c.flat = s.data();
      c.size = static_cast<std::uint32_t>(s.size());
      c.idf = daat_idf(n_docs, s.size());
      c.flat_max = 0.0;
      for (const Posting& p : s) {
        c.flat_max = std::max(c.flat_max, std::log(1.0 + p.tf));
      }
    } else {
      c.view = daat.block_postings(t);
      c.flat = nullptr;
      c.size = c.view.size();
      // Clean term under churn: postings unchanged, but N counts the
      // live doc slots now — recompute the idf exactly as the oracle
      // does. (Zero churn: the stored idf IS this expression.)
      c.idf = churned ? daat_idf(n_docs, c.size) : c.view.idf();
      c.flat_max = 0.0;
    }
  }
  order_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return cursors_[a].size < cursors_[b].size;
            });
  Cursor& drv = cursors_[order_[0]];
  if (drv.size == 0) return out;

  top_docs_.reset(top_k_);
  std::uint64_t matched = 0, touched = 0;
  const double driver_idf = drv.idf;
  constexpr DocId kMaxDoc = std::numeric_limits<DocId>::max();

  while (drv.pos < drv.size) {
    const Posting& dp = at(drv, drv.pos);
    const DocId candidate = dp.doc;

    if (top_docs_.full()) {
      // Bound the best possible score in [candidate, jump], where jump
      // is the nearest block end across all terms: within that range
      // every term's postings stay inside its current (aligned) block,
      // so the per-block max weights bound every contribution.
      bool exhausted = false;
      DocId jump;
      double ub;
      if (drv.flat != nullptr) {
        ub = drv.flat_max * driver_idf;
        jump = drv.flat[drv.size - 1].doc;
      } else {
        const PostingBlockMeta& m = drv.view.block(drv.pos / kBlockPostings);
        ub = m.max_weight * driver_idf;
        jump = m.last_doc;
      }
      for (std::size_t k = 1; k < n; ++k) {
        Cursor& c = cursors_[order_[k]];
        if (c.flat != nullptr) {
          if (c.flat[c.size - 1].doc < candidate) {
            exhausted = true;
            break;
          }
          ub += c.flat_max * c.idf;
          jump = std::min(jump, c.flat[c.size - 1].doc);
        } else {
          c.shallow = c.view.find_block(c.shallow, candidate);
          if (c.shallow >= c.view.num_blocks()) {
            exhausted = true;
            break;
          }
          const PostingBlockMeta& m = c.view.block(c.shallow);
          ub += m.max_weight * c.idf;
          jump = std::min(jump, m.last_doc);
        }
      }
      if (exhausted) break;  // some list has no postings >= candidate
      if (static_cast<float>(ub) < top_docs_.worst().score) {
        const std::uint32_t before = drv.pos;
        drv.pos = jump == kMaxDoc ? drv.size
                                  : advance(drv, drv.pos, jump + 1);
        ++pruning_.prune_jumps;
        pruning_.postings_pruned += drv.pos - before;
        continue;
      }
    }

    ++touched;
    double score = std::log(1.0 + dp.tf) * driver_idf;
    bool all = true;
    DocId next_candidate = candidate + 1;
    for (std::size_t k = 1; k < n && all; ++k) {
      Cursor& c = cursors_[order_[k]];
      c.pos = advance(c, c.pos, candidate);
      ++touched;
      if (c.pos >= c.size) {
        // This list is exhausted: no further candidate can match.
        drv.pos = drv.size;
        all = false;
        break;
      }
      const Posting& p = at(c, c.pos);
      if (p.doc != candidate) {
        next_candidate = p.doc;
        all = false;
      } else {
        score += std::log(1.0 + p.tf) * c.idf;
      }
    }
    if (drv.pos >= drv.size) break;
    if (all) {
      ++matched;
      top_docs_.push(ScoredDoc{candidate, static_cast<float>(score)});
      ++drv.pos;
    } else {
      drv.pos = advance(drv, drv.pos, next_candidate);
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
