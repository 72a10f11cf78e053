#include "src/cache/write_buffer.hpp"

#include <algorithm>

#include "src/util/crash_point.hpp"

namespace ssdse {

WriteBuffer::WriteBuffer(std::uint32_t group_size)
    : group_size_(std::max(group_size, 1u)) {}

std::vector<CachedResult>::iterator WriteBuffer::find(QueryId qid) {
  return std::find_if(pending_.begin(), pending_.end(),
                      [qid](const CachedResult& c) {
                        return c.entry.query == qid;
                      });
}

std::span<CachedResult> WriteBuffer::push(CachedResult entry) {
  // Re-eviction of an entry already waiting: keep the newer copy.
  if (auto it = find(entry.entry.query); it != pending_.end()) {
    it->freq = std::max(it->freq, entry.freq);
    it->entry = std::move(entry.entry);
    return {};
  }
  pending_.push_back(std::move(entry));
  ++stats_.buffered;
  if (pending_.size() < group_size_) return {};
  SSDSE_CRASH_POINT("write_buffer.group_ready");
  full_.clear();
  full_.swap(pending_);
  ++stats_.flush_groups;
  return full_;
}

std::optional<CachedResult> WriteBuffer::take(QueryId qid) {
  auto it = find(qid);
  if (it == pending_.end()) return std::nullopt;
  CachedResult out = std::move(*it);
  pending_.erase(it);
  ++stats_.buffer_hits;
  return out;
}

bool WriteBuffer::cancel(QueryId qid) {
  auto it = find(qid);
  if (it == pending_.end()) return false;
  pending_.erase(it);
  ++stats_.cancelled;
  return true;
}

std::vector<CachedResult> WriteBuffer::drain() {
  SSDSE_CRASH_POINT("write_buffer.drain");
  std::vector<CachedResult> out;
  out.swap(pending_);
  if (!out.empty()) ++stats_.flush_groups;
  return out;
}

bool WriteBuffer::contains(QueryId qid) const {
  return std::any_of(pending_.begin(), pending_.end(),
                     [qid](const CachedResult& c) {
                       return c.entry.query == qid;
                     });
}

}  // namespace ssdse
