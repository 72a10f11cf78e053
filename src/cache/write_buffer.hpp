// Write buffer (paper Figs. 2, 5, 10): evicted result entries assemble
// here into one logical result block (RB) so the SSD only ever sees
// large aligned sequential writes. While an entry waits in the buffer it
// is still readable (a buffer hit counts as a memory-side hit), and the
// cancellation rule applies: entries whose SSD copy is merely in the
// replaceable state are dropped from the buffer and resurrected on SSD
// instead of being rewritten.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/cache/mem_result_cache.hpp"

namespace ssdse {

struct WriteBufferStats {
  std::uint64_t buffered = 0;
  std::uint64_t flush_groups = 0;
  std::uint64_t buffer_hits = 0;
  std::uint64_t cancelled = 0;
};

class WriteBuffer {
 public:
  /// `group_size`: result entries per assembled RB (6 for 128 KiB RBs).
  explicit WriteBuffer(std::uint32_t group_size);

  /// Buffer an eviction. Returns a full group ready to flush once
  /// `group_size` entries accumulate, empty otherwise. The group stays
  /// valid until the next push or drain; callers may move entries out.
  std::span<CachedResult> push(CachedResult entry);

  /// Query-path probe; a hit removes the entry (it goes back to L1).
  std::optional<CachedResult> take(QueryId qid);

  /// Cancellation: drop a buffered entry without writing it.
  bool cancel(QueryId qid);

  /// Drain whatever remains (shutdown / barrier), possibly short groups.
  std::vector<CachedResult> drain();

  bool contains(QueryId qid) const;
  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] const WriteBufferStats& stats() const { return stats_; }

 private:
  /// pending_'s entry for `qid`, or end(). The buffer holds less than
  /// one RB group (6 entries for 128 KiB RBs), so a scan beats any index.
  std::vector<CachedResult>::iterator find(QueryId qid);

  std::uint32_t group_size_;
  std::vector<CachedResult> pending_;
  // The group push() last handed out; it and pending_ swap storage, so
  // assembling groups allocates nothing once both have grown.
  std::vector<CachedResult> full_;
  WriteBufferStats stats_;
};

}  // namespace ssdse
