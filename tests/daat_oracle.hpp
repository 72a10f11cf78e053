// Brute-force scored oracle for conjunctive DAAT top-K (DESIGN.md §8).
//
// Computed from the frequency-sorted lists with plain lookups: no
// cursor, no doc-sorted view, no heap, so it shares no code with the
// engine it checks. Scores follow DaatProcessor's arithmetic exactly,
// which makes the comparison bit-exact:
//  * terms in the processor's order: its std::sort of term indices by
//    list size, so equal sizes tie the same way;
//  * per term log(1 + tf) x log(1 + N / (df + 1)), N = base_docs(),
//    summed in double driver term first, then cast to float;
//  * top-K by score descending, then doc ascending.
// Only for indexes without churn: the overlay is not read.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/daat.hpp"

namespace ssdse {

struct OracleResult {
  ResultEntry result;
  std::uint64_t docs_scored = 0;  // size of the whole intersection
};

inline OracleResult brute_force_daat(const MaterializedIndex& index,
                                     const Query& q, std::size_t top_k) {
  OracleResult out;
  out.result.query = q.id;
  const std::size_t n = q.terms.size();
  if (n == 0) return out;

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  const auto size_of = [&](std::uint32_t i) {
    return index.postings(q.terms[i])->size();
  };
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return size_of(a) < size_of(b);
            });

  const double n_docs = static_cast<double>(index.base_docs());
  std::vector<std::map<DocId, std::uint32_t>> tf(n);
  std::vector<double> idf(n);
  for (std::size_t k = 0; k < n; ++k) {
    const PostingList& list = *index.postings(q.terms[order[k]]);
    for (const Posting& p : list.postings()) tf[k][p.doc] = p.tf;
    const double df = static_cast<double>(list.size());
    idf[k] = std::log(1.0 + n_docs / (df + 1.0));
  }

  std::vector<ScoredDoc> matches;
  for (const auto& [doc, driver_tf] : tf[0]) {
    double score = std::log(1.0 + driver_tf) * idf[0];
    bool all = true;
    for (std::size_t k = 1; k < n && all; ++k) {
      const auto it = tf[k].find(doc);
      all = it != tf[k].end();
      if (all) score += std::log(1.0 + it->second) * idf[k];
    }
    if (all) matches.push_back(ScoredDoc{doc, static_cast<float>(score)});
  }
  out.docs_scored = matches.size();
  std::sort(matches.begin(), matches.end(),
            [](const ScoredDoc& a, const ScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (matches.size() > top_k) matches.resize(top_k);
  out.result.docs = std::move(matches);
  return out;
}

/// Same docs in the same order, the same score bits and the same
/// docs_scored as the oracle.
inline void expect_matches_oracle(const ResultEntry& got,
                                  const DaatStats& stats,
                                  const OracleResult& want) {
  const QueryId q = want.result.query;
  ASSERT_EQ(got.query, q);
  ASSERT_EQ(got.docs.size(), want.result.docs.size()) << "query " << q.raw();
  for (std::size_t i = 0; i < got.docs.size(); ++i) {
    EXPECT_EQ(got.docs[i].doc, want.result.docs[i].doc)
        << "query " << q.raw() << " rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.docs[i].score),
              std::bit_cast<std::uint32_t>(want.result.docs[i].score))
        << "query " << q.raw() << " rank " << i;
  }
  EXPECT_EQ(stats.docs_scored, want.docs_scored) << "query " << q.raw();
}

}  // namespace ssdse
