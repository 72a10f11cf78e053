// Durable ingest log (DESIGN.md §12): one CRC-framed record per
// ingest/delete/merge-seal, appended write-ahead to `<dir>/ingest.ssdse`
// — a separate file from the cache journal, whose replay treats foreign
// record types as corruption by design.
//
// Warm restart replays the longest consistent prefix in order; because
// every live-index mutation is deterministic given the record stream,
// replay reconverges the segment, tombstones and merged lists to the
// exact pre-crash state (bit-identical query results). The writer shares
// recovery::JournalWriter, so the crash injector can tear an append at
// any byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/recovery/journal.hpp"
#include "src/util/types.hpp"

namespace ssdse::ingest {

struct LogRecord {
  recovery::RecordType type = recovery::RecordType::kIngest;
  DocId doc{};            // kIngest / kDelete
  std::uint64_t tick = 0;   // cache logical time of the mutation
  std::uint64_t doc_count = 0;  // kMergeSeal: total slots after merge
  std::vector<std::pair<TermId, std::uint32_t>> bag;  // kIngest only
};

class IngestLog {
 public:
  struct Scan {
    std::vector<LogRecord> records;  // longest semantically valid prefix
    Bytes valid_bytes = 0;
    Bytes torn_bytes = 0;  // CRC-torn tail plus undecodable frames
  };

  explicit IngestLog(std::string path) : writer_(std::move(path)) {}

  /// Write-ahead records; each appends one frame and flushes (and may
  /// throw CrashException under the crash injector).
  void append_ingest(DocId doc, std::uint64_t tick,
                     const std::vector<std::pair<TermId, std::uint32_t>>& bag);
  void append_delete(DocId doc, std::uint64_t tick);
  void append_merge_seal(std::uint64_t doc_count, std::uint64_t tick);

  [[nodiscard]] Bytes bytes_written() const { return writer_.bytes_written(); }
  [[nodiscard]] const std::string& path() const { return writer_.path(); }

  /// Scan `path` and decode the longest prefix of well-formed ingest
  /// records; a frame that fails CRC, fails to decode, or carries a
  /// non-ingest type ends the prefix there. Missing file = empty scan.
  static Scan scan(const std::string& path);

  /// Truncate the file to `valid_bytes` so post-recovery appends extend
  /// a consistent prefix.
  static bool repair(const std::string& path, Bytes valid_bytes);

 private:
  recovery::JournalWriter writer_;
};

}  // namespace ssdse::ingest
