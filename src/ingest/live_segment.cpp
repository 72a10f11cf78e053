#include "src/ingest/live_segment.hpp"

namespace ssdse::ingest {

LiveSegment::LiveSegment(std::uint32_t vocab_size,
                         std::uint32_t block_size)
    : block_size_(block_size == 0 ? 1 : block_size),
      chains_(vocab_size) {}

std::uint32_t LiveSegment::new_block() {
  const auto id = static_cast<std::uint32_t>(blocks_.size());
  blocks_.push_back(Block{});
  arena_.resize(arena_.size() + block_size_);
  return id;
}

void LiveSegment::append(TermId t, Posting p) {
  Chain& c = chains_[t];
  if (c.tail == kInvalidU32 || blocks_[c.tail].used == block_size_) {
    const std::uint32_t b = new_block();
    if (c.tail == kInvalidU32) {
      c.head = b;
    } else {
      blocks_[c.tail].next = b;
    }
    c.tail = b;
  }
  Block& tail = blocks_[c.tail];
  arena_[static_cast<std::size_t>(c.tail) * block_size_ + tail.used] = p;
  ++tail.used;
  ++c.count;
  ++total_;
}

void LiveSegment::collect(TermId t, std::vector<Posting>& out) const {
  const Chain& c = chains_[t];
  out.reserve(out.size() + c.count);
  for (std::uint32_t b = c.head; b != kInvalidU32; b = blocks_[b].next) {
    const std::size_t base = static_cast<std::size_t>(b) * block_size_;
    for (std::uint32_t i = 0; i < blocks_[b].used; ++i) {
      out.push_back(arena_[base + i]);
    }
  }
}

std::uint64_t LiveSegment::arena_bytes() const {
  return arena_.capacity() * sizeof(Posting) +
         blocks_.capacity() * sizeof(Block) +
         chains_.capacity() * sizeof(Chain);
}

void LiveSegment::clear() {
  arena_.clear();
  blocks_.clear();
  for (Chain& c : chains_) c = Chain{};
  total_ = 0;
}

}  // namespace ssdse::ingest
