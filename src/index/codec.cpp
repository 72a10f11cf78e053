#include "src/index/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "src/index/block_postings.hpp"

namespace ssdse {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(std::span<const std::uint8_t> in, std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= in.size()) {
      throw std::out_of_range("get_varint: truncated input");
    }
    const std::uint8_t b = in[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
    if (shift > 63) throw std::invalid_argument("get_varint: overlong");
  }
}

Bytes PostingCodec::encoded_bytes(std::span<const Posting> postings) const {
  return encode(postings).size();
}

CodecKind codec_kind(const std::string& name) {
  if (name == "raw") return CodecKind::kRaw;
  if (name == "varint") return CodecKind::kVarint;
  if (name == "group-varint") return CodecKind::kGroupVarint;
  if (name == "block-packed") return CodecKind::kBlockPacked;
  if (name == "stream-vbyte") return CodecKind::kStreamVByte;
  throw std::invalid_argument("unknown codec: " + name);
}

bool is_block_codec(CodecKind kind) {
  return kind == CodecKind::kBlockPacked || kind == CodecKind::kStreamVByte;
}

bool model_is_df_dependent(CodecKind kind) { return is_block_codec(kind); }

double model_bytes_per_posting(CodecKind kind, std::uint64_t df,
                               std::uint64_t num_docs) {
  // Expected doc-id delta bits for a doc-sorted list of `df` postings
  // over `num_docs` documents: gaps average num_docs/df, and the block
  // maximum over 128 draws sits a few bits above the mean's log2.
  const auto delta_bits = [&]() {
    const double gap = static_cast<double>(num_docs) /
                       static_cast<double>(std::max<std::uint64_t>(df, 1));
    return std::log2(gap + 1.0) + 2.0;
  };
  switch (kind) {
    case CodecKind::kRaw:
      return 8.0;
    case CodecKind::kVarint:
      // Doc ids uniform in [0, num_docs): ~ceil(log128(num_docs)) bytes;
      // tf deltas are ~1 byte.
      return std::max(1.0,
                      std::ceil(std::log2(static_cast<double>(num_docs) + 1) /
                                7.0)) +
             1.0;
    case CodecKind::kGroupVarint:
      // doc bytes + tf byte + selector amortized over 4 values
      // (2 postings).
      return std::max(1.0,
                      std::ceil(std::log2(static_cast<double>(num_docs) + 1) /
                                8.0)) +
             1.0 + 0.5;
    case CodecKind::kBlockPacked:
      // delta bits + ~3 tf bits, plus the per-block header (2 width
      // bytes + ~4 B varint base + padding) amortized over 128.
      return std::max(0.5, (delta_bits() + 3.0) / 8.0 + 7.0 / 128.0);
    case CodecKind::kStreamVByte:
      // whole delta bytes + 1 tf byte + 2 control quarter-bytes, plus
      // the varint base amortized over 128.
      return std::max(1.0, std::ceil(delta_bits() / 8.0)) + 1.0 + 0.5 +
             4.0 / 128.0;
  }
  throw std::invalid_argument("unknown codec kind");
}

// --- RawCodec ------------------------------------------------------------

std::vector<std::uint8_t> RawCodec::encode(
    std::span<const Posting> postings) const {
  std::vector<std::uint8_t> out(postings.size() * 8);
  for (std::size_t i = 0; i < postings.size(); ++i) {
    std::memcpy(out.data() + i * 8, &postings[i].doc, 4);
    std::memcpy(out.data() + i * 8 + 4, &postings[i].tf, 4);
  }
  return out;
}

std::vector<Posting> RawCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  if (bytes.size() % 8 != 0) {
    throw std::invalid_argument("RawCodec::decode: size not a multiple of 8");
  }
  std::vector<Posting> out(bytes.size() / 8);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::memcpy(&out[i].doc, bytes.data() + i * 8, 4);
    std::memcpy(&out[i].tf, bytes.data() + i * 8 + 4, 4);
  }
  return out;
}

double RawCodec::bytes_per_posting(std::uint64_t df,
                                   std::uint64_t num_docs) const {
  return model_bytes_per_posting(CodecKind::kRaw, df, num_docs);
}

// --- VarintCodec -----------------------------------------------------------

std::vector<std::uint8_t> VarintCodec::encode(
    std::span<const Posting> postings) const {
  std::vector<std::uint8_t> out;
  out.reserve(postings.size() * 5);
  put_varint(out, postings.size());
  std::uint32_t prev_tf = 0;
  bool first = true;
  for (const Posting& p : postings) {
    put_varint(out, p.doc.raw());
    if (first) {
      put_varint(out, p.tf);
      first = false;
    } else {
      // Frequency-sorted: tf non-increasing, so the delta is >= 0 and
      // usually tiny.
      put_varint(out, prev_tf - p.tf);
    }
    prev_tf = p.tf;
  }
  return out;
}

std::vector<Posting> VarintCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  std::size_t pos = 0;
  const auto n = get_varint(bytes, pos);
  std::vector<Posting> out;
  out.reserve(n);
  std::uint32_t prev_tf = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    Posting p;
    p.doc = static_cast<DocId>(get_varint(bytes, pos));
    const auto v = static_cast<std::uint32_t>(get_varint(bytes, pos));
    p.tf = i == 0 ? v : prev_tf - v;
    prev_tf = p.tf;
    out.push_back(p);
  }
  return out;
}

double VarintCodec::bytes_per_posting(std::uint64_t df,
                                      std::uint64_t num_docs) const {
  return model_bytes_per_posting(CodecKind::kVarint, df, num_docs);
}

// --- GroupVarintCodec --------------------------------------------------------

namespace {

std::uint8_t byte_width(std::uint32_t v) {
  if (v < (1u << 8)) return 1;
  if (v < (1u << 16)) return 2;
  if (v < (1u << 24)) return 3;
  return 4;
}

}  // namespace

std::vector<std::uint8_t> GroupVarintCodec::encode(
    std::span<const Posting> postings) const {
  // Flatten to a value stream: doc0, tf0, doc1, tf1, ...
  std::vector<std::uint32_t> values;
  values.reserve(postings.size() * 2);
  for (const Posting& p : postings) {
    values.push_back(p.doc.raw());
    values.push_back(p.tf);
  }
  std::vector<std::uint8_t> out;
  out.reserve(values.size() + values.size() * 4 / 3);
  put_varint(out, postings.size());
  for (std::size_t i = 0; i < values.size(); i += 4) {
    std::uint32_t group[4] = {0, 0, 0, 0};
    const std::size_t n = std::min<std::size_t>(4, values.size() - i);
    std::uint8_t selector = 0;
    for (std::size_t j = 0; j < n; ++j) {
      group[j] = values[i + j];
      selector |= static_cast<std::uint8_t>((byte_width(group[j]) - 1)
                                            << (2 * j));
    }
    out.push_back(selector);
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint8_t w = byte_width(group[j]);
      for (std::uint8_t b = 0; b < w; ++b) {
        out.push_back(static_cast<std::uint8_t>(group[j] >> (8 * b)));
      }
    }
  }
  return out;
}

std::vector<Posting> GroupVarintCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  std::size_t pos = 0;
  const auto n = get_varint(bytes, pos);
  const std::uint64_t total_values = n * 2;
  std::vector<std::uint32_t> values;
  values.reserve(total_values);
  while (values.size() < total_values) {
    if (pos >= bytes.size()) {
      throw std::out_of_range("GroupVarintCodec::decode: truncated");
    }
    const std::uint8_t selector = bytes[pos++];
    const std::size_t in_group =
        std::min<std::uint64_t>(4, total_values - values.size());
    for (std::size_t j = 0; j < in_group; ++j) {
      const std::uint8_t w =
          static_cast<std::uint8_t>(((selector >> (2 * j)) & 3) + 1);
      if (pos + w > bytes.size()) {
        throw std::out_of_range("GroupVarintCodec::decode: truncated group");
      }
      std::uint32_t v = 0;
      for (std::uint8_t b = 0; b < w; ++b) {
        v |= static_cast<std::uint32_t>(bytes[pos++]) << (8 * b);
      }
      values.push_back(v);
    }
  }
  std::vector<Posting> out(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out[i] = Posting{DocId{values[i * 2]}, values[i * 2 + 1]};
  }
  return out;
}

double GroupVarintCodec::bytes_per_posting(std::uint64_t df,
                                           std::uint64_t num_docs) const {
  return model_bytes_per_posting(CodecKind::kGroupVarint, df, num_docs);
}

// --- Block codecs ----------------------------------------------------------
//
// Whole-list framing shared by both block codecs: varint posting count,
// then independent 128-posting blocks in the blockfmt layout. The cache
// layer charges a list its blocks alone (block_slice_bytes); these
// PostingCodec wrappers expose the framed bytes through the generic
// encode/decode interface for the round-trip suites.

namespace {

void append_blocks(CodecKind kind, std::span<const Posting> postings,
                   std::vector<std::uint8_t>& out) {
  for (std::size_t i = 0; i < postings.size(); i += kBlockPostings) {
    const std::size_t m =
        std::min<std::size_t>(kBlockPostings, postings.size() - i);
    blockfmt::encode_block(kind, postings.subspan(i, m), out);
  }
}

template <CodecKind kKind>
std::vector<std::uint8_t> block_encode(std::span<const Posting> postings) {
  std::vector<std::uint8_t> out;
  out.reserve(2 + postings.size() * 2);
  put_varint(out, postings.size());
  append_blocks(kKind, postings, out);
  return out;
}

template <CodecKind kKind>
std::vector<Posting> block_decode(std::span<const std::uint8_t> bytes) {
  std::size_t pos = 0;
  const auto n = get_varint(bytes, pos);
  std::vector<Posting> out(n);
  for (std::uint64_t i = 0; i < n; i += kBlockPostings) {
    const auto m =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(kBlockPostings,
                                                           n - i));
    pos = blockfmt::decode_block(kKind, bytes, pos, m, out.data() + i);
  }
  return out;
}

}  // namespace

Bytes block_slice_bytes(CodecKind kind, std::span<const Posting> postings) {
  std::vector<std::uint8_t> scratch;
  append_blocks(kind, postings, scratch);
  return scratch.size();
}

std::vector<std::uint8_t> BlockPackedCodec::encode(
    std::span<const Posting> postings) const {
  return block_encode<CodecKind::kBlockPacked>(postings);
}

std::vector<Posting> BlockPackedCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  return block_decode<CodecKind::kBlockPacked>(bytes);
}

double BlockPackedCodec::bytes_per_posting(std::uint64_t df,
                                           std::uint64_t num_docs) const {
  return model_bytes_per_posting(CodecKind::kBlockPacked, df, num_docs);
}

std::vector<std::uint8_t> StreamVByteCodec::encode(
    std::span<const Posting> postings) const {
  return block_encode<CodecKind::kStreamVByte>(postings);
}

std::vector<Posting> StreamVByteCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  return block_decode<CodecKind::kStreamVByte>(bytes);
}

double StreamVByteCodec::bytes_per_posting(std::uint64_t df,
                                           std::uint64_t num_docs) const {
  return model_bytes_per_posting(CodecKind::kStreamVByte, df, num_docs);
}

std::unique_ptr<PostingCodec> make_codec(const std::string& name) {
  if (name == "raw") return std::make_unique<RawCodec>();
  if (name == "varint") return std::make_unique<VarintCodec>();
  if (name == "group-varint") return std::make_unique<GroupVarintCodec>();
  if (name == "block-packed") return std::make_unique<BlockPackedCodec>();
  if (name == "stream-vbyte") return std::make_unique<StreamVByteCodec>();
  throw std::invalid_argument("unknown codec: " + name);
}

}  // namespace ssdse
