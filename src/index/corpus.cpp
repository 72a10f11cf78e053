#include "src/index/corpus.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/index/codec.hpp"
#include "src/index/posting.hpp"
#include "src/util/zipf.hpp"

namespace ssdse {

TermStatsModel::TermStatsModel(const CorpusConfig& cfg) : cfg_(cfg) {
  // ssdse-lint: allow(nondeterminism) wall-clock build-time telemetry only; never enters simulated state
  const auto t0 = std::chrono::steady_clock::now();
  df_.resize(cfg.vocab_size);
  list_bytes_.resize(cfg.vocab_size);
  pu_.resize(cfg.vocab_size);
  Rng rng(cfg.seed);
  // Resolve the codec once. The classic size models are df-independent,
  // so their per-posting constant hoists out of the per-term loop (the
  // old code paid a virtual call through a freshly heap-allocated codec
  // for every one of the ~1M vocabulary terms); the block codecs' delta
  // widths depend on list density, so they re-evaluate per term — still
  // just a log2, no allocation.
  const CodecKind kind = codec_kind(cfg.codec);
  const bool df_dependent = model_is_df_dependent(kind);
  const double hoisted_bytes_per_posting =
      df_dependent ? 0.0 : model_bytes_per_posting(kind, /*df=*/1,
                                                   cfg.num_docs);

  // Target total postings; distribute over ranks by the Zipf law, capped
  // at num_docs (a term cannot appear in more documents than exist).
  const double target = static_cast<double>(cfg.num_docs) * cfg.terms_per_doc;
  const double hn = generalized_harmonic(cfg.vocab_size, cfg.df_zipf);
  const auto df_cap = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(cfg.max_df_fraction *
                                 static_cast<double>(cfg.num_docs)),
      1);
  total_postings_ = 0;
  for (TermId r{}; r.raw() < cfg.vocab_size; ++r) {
    const double share =
        std::pow(static_cast<double>(r.raw() + 1), -cfg.df_zipf) / hn;
    auto df = static_cast<std::uint64_t>(target * share);
    df = std::min(df, df_cap);  // stopword pruning
    df = std::max<std::uint64_t>(df, 1);
    df_[r] = df;
    total_postings_ += df;
    const double bytes_per_posting =
        df_dependent ? model_bytes_per_posting(kind, df, cfg.num_docs)
                     : hoisted_bytes_per_posting;
    list_bytes_[r] = std::max<Bytes>(
        static_cast<Bytes>(
            std::ceil(static_cast<double>(df) * bytes_per_posting)),
        1);
  }

  // Utilization: early termination reads a prefix whose absolute size
  // grows only slowly with list length, so PU falls with df. Calibrated
  // to Fig. 3a's spread (long head terms ~5-30 %, mid terms ~40-80 %,
  // tail terms ~100 %).
  for (TermId r{}; r.raw() < cfg.vocab_size; ++r) {
    const double dfd = static_cast<double>(df_[r]);
    // Postings actually needed ~ c * df^0.55 (sublinear in list size).
    const double needed = 40.0 * std::pow(dfd, 0.55);
    double pu = std::min(1.0, needed / dfd);
    pu *= std::exp(rng.normal(0.0, 0.25));  // per-term noise
    pu_[r] = static_cast<float>(std::clamp(pu, 0.01, 1.0));
  }
  build_wall_ms_ =
      std::chrono::duration<double, std::milli>(
          // ssdse-lint: allow(nondeterminism) wall-clock build-time telemetry only
          std::chrono::steady_clock::now() - t0)
          .count();
}

MaterializedCorpus::MaterializedCorpus(const CorpusConfig& cfg, Rng& rng)
    : cfg_(cfg) {
  docs_.resize(cfg.num_docs);
  ZipfSampler term_dist(cfg.vocab_size, cfg.df_zipf);
  // Per-document tf counts: one dense slot per term, reset through the
  // list of terms the document touched.
  std::vector<std::uint32_t> tf(cfg.vocab_size, 0);
  std::vector<TermId> touched;
  for (auto& doc : docs_) {
    const auto distinct = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               cfg.terms_per_doc *
               std::exp(rng.normal(0.0, cfg.doclen_sigma))));
    // Sample occurrences; repeats raise tf (roughly geometric tf's).
    const auto occurrences = distinct * 2;
    for (std::uint64_t i = 0; i < occurrences; ++i) {
      const TermId t{static_cast<std::uint32_t>(term_dist.sample(rng) - 1)};
      if (tf[t.raw()]++ == 0) touched.push_back(t);
    }
    std::sort(touched.begin(), touched.end());
    doc.reserve(touched.size());
    for (const TermId t : touched) {
      doc.emplace_back(t, tf[t.raw()]);
      tf[t.raw()] = 0;
    }
    touched.clear();
  }
}

}  // namespace ssdse
