// Write-optimized in-memory posting segment (DESIGN.md §12).
//
// Incremental ingestion needs per-term growing posting lists with O(1)
// appends and no per-append reallocation of other terms' data. Following
// the block-chained allocator of Asadi & Lin's in-memory incremental
// indexing, postings live in one growing arena carved into fixed-size
// blocks; each term owns a singly-linked chain of blocks. Appending
// either writes into the tail block's free slot or links a fresh block —
// both O(1) — and a collect() walks the chain in insertion order, which
// by the monotone doc-id invariant is doc-ascending.
#pragma once

#include <cstdint>
#include <vector>

#include "src/index/posting.hpp"

namespace ssdse::ingest {

class LiveSegment {
 public:
  /// `block_size` is the chain-block granularity, in postings: small
  /// blocks waste less on singleton terms, large blocks chase fewer
  /// pointers.
  LiveSegment(std::uint32_t vocab_size, std::uint32_t block_size);

  /// Append one posting to term `t`'s chain. Doc ids must arrive
  /// non-decreasing per term (enforced by the monotone-id assignment in
  /// LiveIndex, not re-checked here).
  void append(TermId t, Posting p);

  /// Live postings recorded for term `t`.
  [[nodiscard]] std::uint64_t count(TermId t) const {
    return chains_[t].count;
  }

  /// Append term `t`'s postings, insertion-ordered, to `out`.
  void collect(TermId t, std::vector<Posting>& out) const;

  [[nodiscard]] std::uint64_t total_postings() const { return total_; }
  /// Arena + chain-metadata footprint (capacity, not occupancy).
  [[nodiscard]] std::uint64_t arena_bytes() const;

  /// Drop all postings but keep the arena capacity (the segment is
  /// recycled across merges).
  void clear();

 private:
  struct Chain {
    std::uint32_t head = kInvalidU32;
    std::uint32_t tail = kInvalidU32;
    std::uint64_t count = 0;
  };
  struct Block {
    std::uint32_t next = kInvalidU32;
    std::uint32_t used = 0;
  };

  std::uint32_t new_block();

  std::uint32_t block_size_;
  std::vector<Posting> arena_;  // blocks_.size() * block_size_ slots
  std::vector<Block> blocks_;
  IdVector<TermId, Chain> chains_;  // per term
  std::uint64_t total_ = 0;
};

}  // namespace ssdse::ingest
