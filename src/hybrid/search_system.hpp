// SearchSystem: one simulated index server — index + devices + two-level
// cache + query stream — the unit every experiment in §VII runs on.
#pragma once

#include <memory>
#include <optional>

#include "src/cache/cache_manager.hpp"
#include "src/engine/scorer.hpp"
#include "src/hybrid/metrics.hpp"
#include "src/hybrid/system_config.hpp"
#include "src/index/inverted_index.hpp"
#include "src/ingest/ingest_log.hpp"
#include "src/ingest/live_index.hpp"
#include "src/recovery/recovery_manager.hpp"
#include "src/telemetry/registry.hpp"
#include "src/telemetry/tracer.hpp"
#include "src/workload/query_log.hpp"

namespace ssdse {

/// Live-index accounting (run report "ingest" section).
struct IngestStats {
  std::uint64_t docs = 0;          // documents ingested
  std::uint64_t deletes = 0;       // documents tombstoned
  std::uint64_t delete_misses = 0;  // delete of unknown/deleted id
  std::uint64_t merges = 0;
  std::uint64_t merged_terms = 0;      // term lists rebuilt across merges
  std::uint64_t merged_postings = 0;   // postings rewritten across merges
  std::uint64_t replayed_records = 0;  // warm-restart log replay
  std::uint64_t replay_torn_bytes = 0;  // truncated tail at recovery
  Micros apply_time = micros(0);  // modelled CPU of ingest/delete applies
  Micros merge_time = micros(0);  // modelled CPU of segment merges
};

class SearchSystem {
 public:
  /// Builds an AnalyticIndex from cfg.corpus (web-scale path).
  explicit SearchSystem(const SystemConfig& cfg);
  /// Uses a caller-provided index (e.g. MaterializedIndex for
  /// correctness experiments). The index must outlive the system.
  SearchSystem(const SystemConfig& cfg, IndexView& index);
  /// Live-index form: materialized index + its corpus (both must
  /// outlive the system). Required when cfg.ingest.enabled — deletes
  /// need the corpus to resolve a base document's term bag.
  SearchSystem(const SystemConfig& cfg, MaterializedIndex& index,
               const MaterializedCorpus& corpus);

  // The telemetry registry holds raw pointers into this object's stats
  // accumulators; pinning the address keeps them valid for its lifetime.
  SearchSystem(const SearchSystem&) = delete;
  SearchSystem& operator=(const SearchSystem&) = delete;

  struct QueryOutcome {
    Micros response = micros(0);
    Situation situation = Situation::kS9_ListsHdd;
    bool result_from_cache = false;
    ResultEntry result;
  };

  /// Execute one query end to end (QM -> scoring -> RM).
  QueryOutcome execute(const Query& q);

  /// Pull `n` queries from the internal generator and execute them.
  void run(std::uint64_t n);

  // Live index (cfg.ingest.enabled + the three-argument constructor;
  // throws std::logic_error otherwise).
  /// Ingest one document (any (term, tf) order; duplicates coalesce,
  /// zero tfs drop). Write-ahead logged when recovery is configured;
  /// returns the assigned doc id. May trigger a background merge.
  DocId ingest_document(std::vector<std::pair<TermId, std::uint32_t>> bag);
  /// Tombstone a document. False (and no log record) when the id is
  /// unknown or already deleted. May trigger a background merge.
  bool delete_document(DocId doc);
  /// Fold the live segment into the materialized index now. No-op when
  /// the segment is clean. Merging is content-transparent: queries see
  /// bit-identical results before and after, so no cache entries are
  /// invalidated by this call.
  void merge_now();
  [[nodiscard]] const ingest::LiveIndex* live_index() const {
    return live_.get();
  }
  [[nodiscard]] const IngestStats& ingest_stats() const {
    return ingest_stats_;
  }

  [[nodiscard]] const RunMetrics& metrics() const { return metrics_; }
  [[nodiscard]] double throughput_qps() const {
    return metrics_.throughput_qps(cm_->stats().background_flash_time);
  }
  [[nodiscard]] Micros background_flash_time() const {
    return cm_->stats().background_flash_time;
  }

  CacheManager& cache_manager() { return *cm_; }
  [[nodiscard]] const CacheManager& cache_manager() const { return *cm_; }
  IndexView& index() { return *index_; }
  QueryLogGenerator& generator() { return *gen_; }
  Ssd* cache_ssd() { return cache_ssd_.get(); }
  [[nodiscard]] const Ssd* cache_ssd() const { return cache_ssd_.get(); }
  HddModel& hdd() { return *hdd_; }
  StorageDevice& index_store() {
    if (index_on_ssd_) return *index_ssd_;
    if (faulty_hdd_) return *faulty_hdd_;
    return *hdd_;
  }
  /// Fault decorator on the HDD index store; null unless
  /// cfg.hdd_faults.armed().
  [[nodiscard]] const FaultyDevice* faulty_hdd() const { return faulty_hdd_.get(); }
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  [[nodiscard]] const std::optional<LogAnalysis>& log_analysis() const { return analysis_; }

  /// Every stats struct in the system, registered under hierarchical
  /// names (cache.*, ssd.cache.*, query.*, trace.*, index.*).
  [[nodiscard]] const telemetry::MetricsRegistry& telemetry_registry() const {
    return registry_;
  }
  telemetry::MetricsRegistry& telemetry_registry() { return registry_; }
  [[nodiscard]] const telemetry::QueryTracer& tracer() const { return tracer_; }
  telemetry::QueryTracer& tracer() { return tracer_; }
  /// The tracing switch: off, every span site costs one branch.
  void set_tracing(bool on) { tracer_.set_enabled(on); }

  /// Flush the write buffer and settle background state (end of run).
  void drain() { cm_->drain(); }

  /// Persistence (src/recovery): snapshot the SSD cache metadata now
  /// and reset the journal. No-op (false) when recovery is disabled.
  bool checkpoint();
  /// Whether this system came up warm from recovered metadata.
  [[nodiscard]] bool warm_started() const { return warm_started_; }
  /// Recovery accounting; null when recovery is disabled.
  [[nodiscard]] const recovery::RecoveryStats* recovery_stats() const {
    return persistence_ ? &persistence_->stats() : nullptr;
  }

 private:
  void build(IndexView* external_index);
  /// Warm restart: replay the ingest log's consistent prefix (repairing
  /// a torn tail first) so the live index reconverges bit-identically.
  void replay_ingest_log(const std::string& log_path);
  /// Register every component's stats struct into registry_ (end of
  /// build(), once all components have their final addresses).
  void register_telemetry();
  /// Periodic snapshot per cfg.recovery.snapshot_every.
  void maybe_checkpoint();
  /// Pre-write every index page on the index SSD so later reads are
  /// charged real flash reads (one-time setup, excluded from metrics).
  void format_index_ssd();

  SystemConfig cfg_;
  bool index_on_ssd_ = false;

  std::unique_ptr<IndexView> owned_index_;
  IndexView* index_ = nullptr;

  std::unique_ptr<HddModel> hdd_;
  std::unique_ptr<FaultyDevice> faulty_hdd_;  // wraps *hdd_ when armed
  std::unique_ptr<RamDevice> ram_;
  std::unique_ptr<Ssd> cache_ssd_;
  std::unique_ptr<Ssd> index_ssd_;

  Scorer scorer_;
  std::unique_ptr<QueryLogGenerator> gen_;
  std::optional<LogAnalysis> analysis_;
  std::unique_ptr<CacheManager> cm_;

  std::unique_ptr<recovery::PersistenceManager> persistence_;
  bool warm_started_ = false;
  std::uint64_t queries_since_checkpoint_ = 0;

  // Live index (null unless cfg.ingest.enabled).
  const MaterializedCorpus* corpus_ = nullptr;
  std::unique_ptr<ingest::LiveIndex> live_;
  std::unique_ptr<ingest::IngestLog> ingest_log_;
  IngestStats ingest_stats_;

  RunMetrics metrics_;
  telemetry::MetricsRegistry registry_;
  telemetry::QueryTracer tracer_;
};

}  // namespace ssdse
