// PersistenceManager: the warm-restart orchestrator.
//
// Attached to a CacheManager as its journal sink, it appends one record
// per durable L2 mutation to the sidecar journal; checkpoint() folds
// the current metadata into a fresh snapshot (atomic rename) and resets
// the journal. recover() loads the last good snapshot, replays the
// journal's consistent prefix onto it record by record, truncates any
// torn tail, and hands back the CacheImage a CacheManager can restore.
//
// Crash-consistency invariant: one journal record = one aligned RB
// flush (or list install / invalidation), appended *before* the flash
// write it describes and carrying the full payload — so for any crash
// point the affected entry is either fully recoverable from the record
// or the record fails its CRC and the entry is cleanly dropped.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "src/cache/cache_image.hpp"
#include "src/cache/policy.hpp"
#include "src/recovery/journal.hpp"

namespace ssdse::recovery {

struct RecoveryStats {
  bool attempted = false;      // a recover() ran (dir existed or not)
  bool warm = false;           // a valid snapshot was restored
  std::uint64_t journal_records_replayed = 0;
  Bytes journal_valid_bytes = 0;
  Bytes journal_torn_bytes = 0;   // truncated after the consistent prefix
  std::uint64_t journal_records_rejected = 0;  // undecodable payloads
  /// Recovered images that decoded but did not fit the cache geometry
  /// (CacheManager::image_fits); the run then started cold.
  std::uint64_t images_rejected = 0;
  std::uint64_t result_entries_recovered = 0;
  std::uint64_t list_entries_recovered = 0;
  /// Simulated flash time spent re-adopting recovered blocks (reported
  /// separately from query traffic).
  Micros restore_flash_time = micros(0);
  /// Host wall-clock of recover() — snapshot parse + journal replay.
  double recovery_wall_ms = 0;
};

/// Identity of the cache configuration a snapshot/journal was written
/// under; a mismatch (resized caches, different policy or geometry)
/// invalidates the recovery files rather than mis-mapping block ids.
std::uint32_t cache_config_fingerprint(const CacheConfig& cfg);

/// Apply one journal record to an image (exposed for tests). Returns
/// false when the payload does not decode (record is skipped).
bool apply_journal_record(const Frame& record, CacheImage& image);

class PersistenceManager final : public CacheJournalSink {
 public:
  /// `dir` holds the sidecar metadata (snapshot.ssdse + journal.ssdse);
  /// created if missing.
  PersistenceManager(std::string dir, std::uint32_t fingerprint);

  /// Snapshot + journal tail -> image, repairing the journal file.
  /// nullopt means cold start (missing/corrupt/mismatched snapshot).
  std::optional<CacheImage> recover();

  /// Persist `image` as the new snapshot and reset the journal.
  bool checkpoint(const CacheImage& image);

  // CacheJournalSink: one appended record per durable mutation.
  void on_rb_flush(const RbImage& rb) override;
  void on_result_invalidate(QueryId qid) override;
  void on_list_install(const ListEntryImage& entry) override;
  void on_list_erase(TermId term) override;

  void note_restore_flash_time(Micros t) { stats_.restore_flash_time = t; }
  /// The recovered image was refused and the run starts cold: count it,
  /// and report nothing as warm or recovered.
  void note_image_rejected() {
    ++stats_.images_rejected;
    stats_.warm = false;
    stats_.result_entries_recovered = 0;
    stats_.list_entries_recovered = 0;
  }

  [[nodiscard]] const RecoveryStats& stats() const { return stats_; }
  [[nodiscard]] std::string snapshot_path() const;
  [[nodiscard]] std::string journal_path() const;

 private:
  std::string dir_;
  std::uint32_t fingerprint_;
  std::unique_ptr<JournalWriter> journal_;
  RecoveryStats stats_;
};

}  // namespace ssdse::recovery
