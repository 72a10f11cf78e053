// Posting-block format shared by the block codecs (DESIGN.md §13).
//
// A list is cut into fixed-size blocks of `kBlockPostings` (last block
// short). Each block is independently decodable: it stores its first
// doc id absolutely (varint) and the rest as doc-id deltas — bit-packed
// at a per-block width (CodecKind::kBlockPacked) or StreamVByte-style
// byte-aligned (CodecKind::kStreamVByte). Deltas are computed modulo
// 2^32, so ascending doc ids pack into a few bits while arbitrary input
// (the frequency-sorted order the whole-list codecs also accept) still
// round-trips at full width.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/index/codec.hpp"
#include "src/index/posting.hpp"

namespace ssdse {

/// Postings per block: enough for the bit widths to amortize the
/// per-block header.
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

}  // namespace ssdse
