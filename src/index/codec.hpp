// Posting-list compression codecs.
//
// Real inverted indexes (Lucene included) store doc-id deltas and term
// frequencies compressed; list sizes on disk — the quantity every cache
// decision in this system keys on — are codec-dependent. Three codecs:
//   * RawCodec        — fixed 8 B/posting (the simulator's default model);
//   * VarintCodec     — LEB128 on doc-id deltas and tf's (Lucene-classic);
//   * GroupVarintCodec — 4-at-a-time length-prefixed groups (faster
//     decode, slightly larger than varint).
//
// Doc-id deltas require doc-id order, but the engine keeps lists
// frequency-sorted (paper §VI). Like the real systems the paper builds
// on, the codec layer encodes *frequency-ordered* postings with raw doc
// ids varint-packed and tf's delta-packed (tf is non-increasing in that
// order, so deltas are small) — see encode() for the exact layout.
//
// Two block codecs back the compressed posting-block layer (DESIGN.md
// §13), cutting lists into 128-posting blocks with doc-id deltas taken
// modulo 2^32 (tiny for the doc-sorted arenas, still lossless for
// frequency order):
//   * BlockPackedCodec  — per-block bit widths, deltas and tf's packed
//     LSB-first ("block-packed");
//   * StreamVByteCodec  — byte-aligned, 2-bit length selectors in
//     separate control runs ("stream-vbyte").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/index/posting.hpp"

namespace ssdse {

/// Codec identity resolved once from the config string, so size-model
/// hot loops (TermStatsModel builds one entry per vocabulary term) never
/// pay a virtual call or string compare per posting.
enum class CodecKind : std::uint8_t {
  kRaw,
  kVarint,
  kGroupVarint,
  kBlockPacked,
  kStreamVByte,
};

/// Resolve a codec name ("raw", "varint", "group-varint",
/// "block-packed", "stream-vbyte"); throws std::invalid_argument on
/// unknown names.
CodecKind codec_kind(const std::string& name);

/// True for block codecs whose size model depends on list density
/// (delta widths shrink as df grows); callers hoisting the model out of
/// per-term loops must re-evaluate it per term for these kinds.
bool model_is_df_dependent(CodecKind kind);

/// Whether the kind is one of the block codecs (the compressed
/// posting-block layer of DESIGN.md §13).
bool is_block_codec(CodecKind kind);

/// Analytic size model: expected bytes per posting for a list of `df`
/// postings over `num_docs` documents. The classic codecs are
/// df-independent, which lets callers hoist the value out of per-term
/// loops; the block codecs use `df` (check model_is_df_dependent).
double model_bytes_per_posting(CodecKind kind, std::uint64_t df,
                               std::uint64_t num_docs);

class PostingCodec {
 public:
  virtual ~PostingCodec() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Encode postings (frequency-sorted order preserved).
  virtual std::vector<std::uint8_t> encode(
      std::span<const Posting> postings) const = 0;

  /// Decode the full buffer; inverse of encode().
  virtual std::vector<Posting> decode(
      std::span<const std::uint8_t> bytes) const = 0;

  /// Encoded size without materializing the buffer (used by the
  /// analytic index to model on-disk list sizes cheaply).
  virtual Bytes encoded_bytes(std::span<const Posting> postings) const;

  /// Size model for the analytic path: expected bytes per posting for a
  /// list of `df` postings over `num_docs` documents.
  virtual double bytes_per_posting(std::uint64_t df,
                                   std::uint64_t num_docs) const = 0;
};

/// Fixed-width 8 B/posting (doc id + tf, uncompressed).
class RawCodec final : public PostingCodec {
 public:
  [[nodiscard]] std::string name() const override { return "raw"; }
  std::vector<std::uint8_t> encode(
      std::span<const Posting> postings) const override;
  std::vector<Posting> decode(
      std::span<const std::uint8_t> bytes) const override;
  double bytes_per_posting(std::uint64_t df,
                           std::uint64_t num_docs) const override;
};

/// LEB128 varint: doc ids raw-varint, tf's as non-increasing deltas.
class VarintCodec final : public PostingCodec {
 public:
  [[nodiscard]] std::string name() const override { return "varint"; }
  std::vector<std::uint8_t> encode(
      std::span<const Posting> postings) const override;
  std::vector<Posting> decode(
      std::span<const std::uint8_t> bytes) const override;
  double bytes_per_posting(std::uint64_t df,
                           std::uint64_t num_docs) const override;
};

/// Group varint: groups of 4 values with a 1-byte length selector.
class GroupVarintCodec final : public PostingCodec {
 public:
  [[nodiscard]] std::string name() const override { return "group-varint"; }
  std::vector<std::uint8_t> encode(
      std::span<const Posting> postings) const override;
  std::vector<Posting> decode(
      std::span<const std::uint8_t> bytes) const override;
  double bytes_per_posting(std::uint64_t df,
                           std::uint64_t num_docs) const override;
};

/// Block-wise bit packing: 128-posting blocks, per-block delta / tf bit
/// widths (see src/index/block_postings.hpp for the block format).
class BlockPackedCodec final : public PostingCodec {
 public:
  [[nodiscard]] std::string name() const override { return "block-packed"; }
  std::vector<std::uint8_t> encode(
      std::span<const Posting> postings) const override;
  std::vector<Posting> decode(
      std::span<const std::uint8_t> bytes) const override;
  double bytes_per_posting(std::uint64_t df,
                           std::uint64_t num_docs) const override;
};

/// StreamVByte-style byte-aligned blocks: 2-bit length selectors in a
/// control run, then the 1–4-byte values.
class StreamVByteCodec final : public PostingCodec {
 public:
  [[nodiscard]] std::string name() const override { return "stream-vbyte"; }
  std::vector<std::uint8_t> encode(
      std::span<const Posting> postings) const override;
  std::vector<Posting> decode(
      std::span<const std::uint8_t> bytes) const override;
  double bytes_per_posting(std::uint64_t df,
                           std::uint64_t num_docs) const override;
};

/// Bytes `postings` take as one term's blocks under a block codec: the
/// blocks without the whole-list count header.
Bytes block_slice_bytes(CodecKind kind, std::span<const Posting> postings);

/// Factory by name ("raw", "varint", "group-varint", "block-packed",
/// "stream-vbyte").
std::unique_ptr<PostingCodec> make_codec(const std::string& name);

// Low-level varint helpers (shared by codecs and tested directly).
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
std::uint64_t get_varint(std::span<const std::uint8_t> in, std::size_t& pos);

}  // namespace ssdse
