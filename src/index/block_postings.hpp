// Compressed posting blocks with skip and max-score metadata
// (DESIGN.md §13).
//
// Every term's postings are cut into fixed-size blocks of
// `kBlockPostings` (last block short). Each block is independently
// decodable: it stores its first doc id absolutely (varint) and the
// rest as doc-id deltas — bit-packed at a per-block width
// (CodecKind::kBlockPacked) or StreamVByte-style byte-aligned
// (CodecKind::kStreamVByte). Deltas are computed modulo 2^32, so
// ascending doc ids pack into a few bits while arbitrary input (the
// frequency-sorted order the whole-list codecs also accept) still
// round-trips at full width.
//
// Alongside the bytes, the store keeps one PostingBlockMeta per block:
// the block's last doc id (a skip entry — advance() leaps whole blocks
// without decoding them), its byte offset inside the term's slice
// (blocks decode in isolation), and the block's maximum term weight
// max(log(1 + tf)), stored WITHOUT the idf factor so the bound stays
// exact when N — and therefore every idf — changes under live ingest.
// The block-max DAAT scorer multiplies it by the idf in force at query
// time (see MaxScoreDaatProcessor).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/index/codec.hpp"
#include "src/index/gallop.hpp"
#include "src/index/posting.hpp"

namespace ssdse {

/// Postings per block. 128 keeps a decoded block inside two cache
/// lines' worth of skip metadata while giving the bit widths enough
/// postings to amortize the per-block header.
inline constexpr std::uint32_t kBlockPostings = 128;

namespace blockfmt {

/// Append one block (1..kBlockPostings postings) to `out` in the given
/// block codec's format. `kind` must be kBlockPacked or kStreamVByte.
void encode_block(CodecKind kind, std::span<const Posting> block,
                  std::vector<std::uint8_t>& out);

/// Decode `count` postings of one block starting at `pos`; returns the
/// position one past the block. Throws std::out_of_range on truncation.
std::size_t decode_block(CodecKind kind,
                         std::span<const std::uint8_t> bytes,
                         std::size_t pos, std::uint32_t count, Posting* out);

}  // namespace blockfmt

/// Skip + max-score metadata of one posting block.
struct PostingBlockMeta {
  DocId last_doc{};          // doc id of the block's final posting
  std::uint32_t byte_off = 0;  // block start within the term's byte slice
  /// max over the block of log(1 + tf), idf-free (see file comment).
  /// Stored as the exact double the scorer computes, so `stored max >=
  /// every decoded weight` holds with equality for the block maximum.
  double max_weight = 0.0;
};

/// Borrowed, immutable view of one term's compressed blocks. Valid as
/// long as the owning BlockPostingStore lives.
class BlockPostingView {
 public:
  BlockPostingView() = default;
  BlockPostingView(const std::uint8_t* bytes, std::size_t byte_len,
                   const PostingBlockMeta* metas, std::uint32_t num_blocks,
                   std::uint32_t count, double idf, CodecKind kind)
      : bytes_(bytes),
        metas_(metas),
        byte_len_(byte_len),
        num_blocks_(num_blocks),
        count_(count),
        idf_(idf),
        kind_(kind) {}

  [[nodiscard]] std::uint32_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::uint32_t num_blocks() const { return num_blocks_; }
  /// Smoothed DAAT idf, log(1 + N / (df + 1)), as stored at build time.
  [[nodiscard]] double idf() const { return idf_; }
  [[nodiscard]] CodecKind kind() const { return kind_; }
  [[nodiscard]] Bytes encoded_bytes() const { return byte_len_; }

  const PostingBlockMeta& block(std::uint32_t b) const { return metas_[b]; }

  /// Postings in block `b`: kBlockPostings except for the short tail.
  [[nodiscard]] std::uint32_t block_size(std::uint32_t b) const {
    return b + 1 < num_blocks_ ? kBlockPostings
                               : count_ - (num_blocks_ - 1) * kBlockPostings;
  }

  /// Decode block `b` into `out` (capacity >= kBlockPostings); returns
  /// the posting count.
  std::uint32_t decode_block(std::uint32_t b, Posting* out) const;

  /// Smallest block index >= `from` whose last doc id is >= `target`
  /// (i.e. the block that could contain `target`), or num_blocks() if
  /// the list is exhausted. Gallops over the block metadata from `from`;
  /// nothing is decoded.
  [[nodiscard]] std::uint32_t find_block(std::uint32_t from,
                                         DocId target) const {
    return static_cast<std::uint32_t>(
        gallop(std::span(metas_, num_blocks_), from, target,
               &PostingBlockMeta::last_doc));
  }

 private:
  const std::uint8_t* bytes_ = nullptr;
  const PostingBlockMeta* metas_ = nullptr;
  std::size_t byte_len_ = 0;
  std::uint32_t num_blocks_ = 0;
  std::uint32_t count_ = 0;
  double idf_ = 0.0;
  CodecKind kind_ = CodecKind::kBlockPacked;
};

/// Build-once owner of every term's compressed posting blocks. Mirrors
/// DocSortedStore's arena discipline: one contiguous byte arena and one
/// contiguous block-meta arena shared by all terms, per-term slice
/// bounds on the side, lists appended in term-id order.
class BlockPostingStore {
 public:
  explicit BlockPostingStore(CodecKind kind = CodecKind::kBlockPacked);

  void reserve(std::size_t num_terms, std::size_t total_postings);

  /// Append term `num_terms()`'s list. `doc_sorted` must be doc-id
  /// ascending (same contract as DocSortedStore::add_list); the per-
  /// block max weights are computed here, at materialization time.
  void add_list(std::span<const Posting> doc_sorted, double idf);

  BlockPostingView view(TermId t) const {
    const auto b0 = byte_off_[t];
    const auto m0 = meta_off_[t];
    return BlockPostingView(
        bytes_.data() + b0, byte_off_[t + 1] - b0, metas_.data() + m0,
        static_cast<std::uint32_t>(meta_off_[t + 1] - m0), counts_[t],
        idf_[t], kind_);
  }

  /// Encoded byte size of one term's slice (what the cache layer should
  /// charge for this list under this codec).
  [[nodiscard]] Bytes term_bytes(TermId t) const {
    return byte_off_[t + 1] - byte_off_[t];
  }

  [[nodiscard]] std::size_t num_terms() const { return counts_.size(); }
  [[nodiscard]] Bytes encoded_bytes() const { return bytes_.size(); }
  [[nodiscard]] std::uint64_t total_postings() const { return total_postings_; }
  [[nodiscard]] std::size_t total_blocks() const { return metas_.size(); }
  [[nodiscard]] CodecKind kind() const { return kind_; }

 private:
  CodecKind kind_;
  std::vector<std::uint8_t> bytes_;      // arena: all terms' blocks
  std::vector<PostingBlockMeta> metas_;  // arena: all block metadata
  IdVector<TermId, std::uint64_t> byte_off_{0};  // per-term slice bounds
  IdVector<TermId, std::uint64_t> meta_off_{0};
  IdVector<TermId, std::uint32_t> counts_;       // postings per term
  IdVector<TermId, double> idf_;
  std::uint64_t total_postings_ = 0;
};

}  // namespace ssdse
