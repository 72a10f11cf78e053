// Synthetic corpus generation (the enwiki substitute, DESIGN.md §2).
//
// Two forms share one statistical model:
//  * TermStatsModel — analytic per-term document frequencies / list
//    sizes / utilization rates for web-scale simulations (5M docs);
//  * MaterializedCorpus — actual documents (term-id bags) for small-
//    scale runs where real posting lists and real scoring are wanted.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/rng.hpp"
#include "src/util/types.hpp"

namespace ssdse {

struct CorpusConfig {
  std::uint64_t num_docs = 5'000'000;
  std::uint32_t vocab_size = 1'000'000;
  /// Zipf exponent of term document-frequency over term rank.
  double df_zipf = 1.05;
  /// Stopword pruning in the analytic model (TermStatsModel): it caps
  /// every term's df at this fraction of the documents. Calibrated to
  /// the paper's Fig. 3b, whose largest inverted list is ~800 KB on 5M
  /// documents (~2 % df). MaterializedCorpus ignores it: its documents
  /// sample terms from the Zipf law uncapped, so head terms can appear
  /// in nearly every document.
  double max_df_fraction = 0.02;
  /// Mean distinct terms per document (drives total postings).
  double terms_per_doc = 180;
  /// Log-normal sigma of document length variation.
  double doclen_sigma = 0.5;
  /// Posting-list compression codec ("raw", "varint", "group-varint");
  /// determines on-disk list sizes and therefore every cache decision.
  std::string codec = "raw";
  std::uint64_t seed = 2012;
};

/// Analytic per-term statistics: df, list size and modelled utilization
/// rate (the PU of Formula 1, normally measured from the query log; the
/// model reproduces Fig. 3a's shape — long lists are processed
/// shallowly, short lists fully).
class TermStatsModel {
 public:
  explicit TermStatsModel(const CorpusConfig& cfg);

  [[nodiscard]] std::uint32_t vocab_size() const { return static_cast<std::uint32_t>(df_.size()); }
  [[nodiscard]] std::uint64_t num_docs() const { return cfg_.num_docs; }
  [[nodiscard]] const CorpusConfig& config() const { return cfg_; }

  /// Document frequency of the term with popularity rank == id (term ids
  /// are assigned in rank order: id 0 is the most frequent term).
  std::uint64_t df(TermId t) const { return df_[t]; }
  /// On-disk size under the configured codec.
  Bytes list_bytes(TermId t) const { return list_bytes_[t]; }
  /// Modelled utilization rate in (0, 1].
  double utilization(TermId t) const { return pu_[t]; }
  [[nodiscard]] std::uint64_t total_postings() const { return total_postings_; }

  /// Wall-clock time the constructor took (exposed as the telemetry
  /// gauge `index.model.build_ms`).
  [[nodiscard]] double build_wall_ms() const { return build_wall_ms_; }

 private:
  CorpusConfig cfg_;
  IdVector<TermId, std::uint64_t> df_;
  IdVector<TermId, Bytes> list_bytes_;
  IdVector<TermId, float> pu_;
  std::uint64_t total_postings_ = 0;
  double build_wall_ms_ = 0.0;
};

/// A small materialized corpus: documents as bags of term ids.
class MaterializedCorpus {
 public:
  MaterializedCorpus(const CorpusConfig& cfg, Rng& rng);

  /// Explicit-document corpus: wraps pre-built term bags verbatim (each
  /// bag sorted by term id; empty bags model deleted documents). Used by
  /// the live-index tests to build the rebuild-from-scratch oracle after
  /// a churn episode.
  MaterializedCorpus(
      const CorpusConfig& cfg,
      IdVector<DocId, std::vector<std::pair<TermId, std::uint32_t>>> docs)
      : cfg_(cfg), docs_(std::move(docs)) {}
  /// Same, from a raw mirror vector (position i holds document i).
  MaterializedCorpus(
      const CorpusConfig& cfg,
      std::vector<std::vector<std::pair<TermId, std::uint32_t>>> docs)
      : cfg_(cfg),
        docs_(IdVector<DocId,
                       std::vector<std::pair<TermId, std::uint32_t>>>(
            std::move(docs))) {}

  [[nodiscard]] std::uint64_t num_docs() const { return docs_.size(); }
  [[nodiscard]] std::uint32_t vocab_size() const { return cfg_.vocab_size; }
  [[nodiscard]] const CorpusConfig& config() const { return cfg_; }

  /// (term, tf) pairs of one document.
  const std::vector<std::pair<TermId, std::uint32_t>>& doc(DocId d) const {
    return docs_[d];
  }

 private:
  CorpusConfig cfg_;
  IdVector<DocId, std::vector<std::pair<TermId, std::uint32_t>>> docs_;
};

}  // namespace ssdse
