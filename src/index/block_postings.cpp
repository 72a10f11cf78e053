#include "src/index/block_postings.hpp"

#include <algorithm>
#include <stdexcept>

namespace ssdse {

namespace blockfmt {

namespace {

/// Bits needed to represent v (0 for v == 0).
std::uint32_t bit_width32(std::uint32_t v) {
  std::uint32_t w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

/// LSB-first bit packer. Widths are <= 32, so the 64-bit accumulator
/// never holds more than 39 pending bits.
struct BitWriter {
  std::vector<std::uint8_t>& out;
  std::uint64_t acc = 0;
  std::uint32_t nbits = 0;

  void put(std::uint32_t v, std::uint32_t width) {
    acc |= static_cast<std::uint64_t>(v) << nbits;
    nbits += width;
    while (nbits >= 8) {
      out.push_back(static_cast<std::uint8_t>(acc));
      acc >>= 8;
      nbits -= 8;
    }
  }

  /// Pad to a byte boundary (blocks are byte-aligned units).
  void flush() {
    if (nbits > 0) {
      out.push_back(static_cast<std::uint8_t>(acc));
      acc = 0;
      nbits = 0;
    }
  }
};

struct BitReader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos;
  std::uint64_t acc = 0;
  std::uint32_t nbits = 0;

  std::uint32_t get(std::uint32_t width) {
    while (nbits < width) {
      if (pos >= bytes.size()) {
        throw std::out_of_range("block decode: truncated bit stream");
      }
      acc |= static_cast<std::uint64_t>(bytes[pos++]) << nbits;
      nbits += 8;
    }
    const auto v = static_cast<std::uint32_t>(
        acc & ((width == 32) ? 0xFFFFFFFFull : ((1ull << width) - 1)));
    acc >>= width;
    nbits -= width;
    return v;
  }
};

// --- kBlockPacked: per-block bit widths ---------------------------------
//
// Layout of one block of m postings:
//   u8      wd   doc-delta bit width (0..32)
//   u8      wt   tf bit width (0..32)
//   varint  base_doc
//   bits    (m-1) doc deltas @ wd, then m tf values @ wt; byte-padded
//
// Deltas are doc[i] - doc[i-1] modulo 2^32: ascending ids give small
// widths, arbitrary order still round-trips at wd == 32.

void encode_block_packed(std::span<const Posting> block,
                         std::vector<std::uint8_t>& out) {
  std::uint32_t max_delta = 0, max_tf = 0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    if (i > 0) max_delta = std::max(max_delta, block[i].doc - block[i - 1].doc);
    max_tf = std::max(max_tf, block[i].tf);
  }
  const std::uint32_t wd = bit_width32(max_delta);
  const std::uint32_t wt = bit_width32(max_tf);
  out.push_back(static_cast<std::uint8_t>(wd));
  out.push_back(static_cast<std::uint8_t>(wt));
  put_varint(out, block[0].doc.raw());
  BitWriter w{out};
  for (std::size_t i = 1; i < block.size(); ++i) {
    w.put(block[i].doc - block[i - 1].doc, wd);
  }
  for (const Posting& p : block) w.put(p.tf, wt);
  w.flush();
}

std::size_t decode_block_packed(std::span<const std::uint8_t> bytes,
                                std::size_t pos, std::uint32_t count,
                                Posting* out) {
  if (pos + 2 > bytes.size()) {
    throw std::out_of_range("block decode: truncated header");
  }
  const std::uint32_t wd = bytes[pos++];
  const std::uint32_t wt = bytes[pos++];
  if (wd > 32 || wt > 32) {
    throw std::invalid_argument("block decode: bad bit width");
  }
  out[0].doc = DocId{static_cast<std::uint32_t>(get_varint(bytes, pos))};
  BitReader r{bytes, pos};
  for (std::uint32_t i = 1; i < count; ++i) {
    out[i].doc = out[i - 1].doc + r.get(wd);
  }
  for (std::uint32_t i = 0; i < count; ++i) out[i].tf = r.get(wt);
  return r.pos;
}

// --- kStreamVByte: byte-aligned, 2-bit length selectors -----------------
//
// Layout of one block of m postings:
//   varint  base_doc
//   u8[ceil((m-1)/4)]  delta control bytes (2 bits each: byte length - 1)
//   bytes              delta data, little-endian, 1..4 B per value
//   u8[ceil(m/4)]      tf control bytes
//   bytes              tf data
// Control and data are split into separate runs, the StreamVByte trick
// that lets real implementations decode four values per shuffle; the
// scalar decoder here keeps the format, not the SIMD.

std::uint32_t svb_byte_len(std::uint32_t v) {
  if (v < (1u << 8)) return 1;
  if (v < (1u << 16)) return 2;
  if (v < (1u << 24)) return 3;
  return 4;
}

void svb_encode_run(const std::uint32_t* values, std::size_t n,
                    std::vector<std::uint8_t>& out) {
  const std::size_t ctrl_base = out.size();
  out.resize(ctrl_base + (n + 3) / 4, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t len = svb_byte_len(values[i]);
    out[ctrl_base + i / 4] |=
        static_cast<std::uint8_t>((len - 1) << (2 * (i % 4)));
    for (std::uint32_t b = 0; b < len; ++b) {
      out.push_back(static_cast<std::uint8_t>(values[i] >> (8 * b)));
    }
  }
}

std::size_t svb_decode_run(std::span<const std::uint8_t> bytes,
                           std::size_t pos, std::size_t n,
                           std::uint32_t* values) {
  const std::size_t ctrl_base = pos;
  pos += (n + 3) / 4;
  if (pos > bytes.size()) {
    throw std::out_of_range("stream-vbyte decode: truncated control run");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t len =
        ((bytes[ctrl_base + i / 4] >> (2 * (i % 4))) & 3u) + 1;
    if (pos + len > bytes.size()) {
      throw std::out_of_range("stream-vbyte decode: truncated data run");
    }
    std::uint32_t v = 0;
    for (std::uint32_t b = 0; b < len; ++b) {
      v |= static_cast<std::uint32_t>(bytes[pos++]) << (8 * b);
    }
    values[i] = v;
  }
  return pos;
}

void encode_block_svb(std::span<const Posting> block,
                      std::vector<std::uint8_t>& out) {
  put_varint(out, block[0].doc.raw());
  std::uint32_t scratch[kBlockPostings] = {};
  for (std::size_t i = 1; i < block.size(); ++i) {
    scratch[i - 1] = block[i].doc - block[i - 1].doc;
  }
  svb_encode_run(scratch, block.size() - 1, out);
  for (std::size_t i = 0; i < block.size(); ++i) scratch[i] = block[i].tf;
  svb_encode_run(scratch, block.size(), out);
}

std::size_t decode_block_svb(std::span<const std::uint8_t> bytes,
                             std::size_t pos, std::uint32_t count,
                             Posting* out) {
  out[0].doc = DocId{static_cast<std::uint32_t>(get_varint(bytes, pos))};
  std::uint32_t scratch[kBlockPostings];
  pos = svb_decode_run(bytes, pos, count - 1, scratch);
  for (std::uint32_t i = 1; i < count; ++i) {
    out[i].doc = out[i - 1].doc + scratch[i - 1];
  }
  pos = svb_decode_run(bytes, pos, count, scratch);
  for (std::uint32_t i = 0; i < count; ++i) out[i].tf = scratch[i];
  return pos;
}

}  // namespace

void encode_block(CodecKind kind, std::span<const Posting> block,
                  std::vector<std::uint8_t>& out) {
  if (block.empty() || block.size() > kBlockPostings) {
    throw std::invalid_argument("encode_block: bad block size");
  }
  switch (kind) {
    case CodecKind::kBlockPacked:
      encode_block_packed(block, out);
      return;
    case CodecKind::kStreamVByte:
      encode_block_svb(block, out);
      return;
    default:
      throw std::invalid_argument("encode_block: not a block codec");
  }
}

std::size_t decode_block(CodecKind kind, std::span<const std::uint8_t> bytes,
                         std::size_t pos, std::uint32_t count, Posting* out) {
  if (count == 0 || count > kBlockPostings) {
    throw std::invalid_argument("decode_block: bad block size");
  }
  switch (kind) {
    case CodecKind::kBlockPacked:
      return decode_block_packed(bytes, pos, count, out);
    case CodecKind::kStreamVByte:
      return decode_block_svb(bytes, pos, count, out);
    default:
      throw std::invalid_argument("decode_block: not a block codec");
  }
}

}  // namespace blockfmt

}  // namespace ssdse
