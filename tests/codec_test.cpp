// Posting-list compression codec tests: round-trips, size relations,
// error handling, and a parameterized sweep over codecs x list shapes.
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "src/engine/daat.hpp"
#include "src/index/block_postings.hpp"
#include "src/index/codec.hpp"
#include "src/util/rng.hpp"

namespace ssdse {
namespace {

std::vector<Posting> freq_sorted_list(std::size_t n, std::uint64_t seed,
                                      DocId doc_space = DocId{1'000'000}) {
  Rng rng(seed);
  std::vector<Posting> out;
  out.reserve(n);
  std::uint32_t tf = 100000;
  for (std::size_t i = 0; i < n; ++i) {
    // tf non-increasing (frequency-sorted order).
    tf -= static_cast<std::uint32_t>(rng.next_below(3));
    out.push_back(Posting{DocId{static_cast<std::uint32_t>(rng.next_below(doc_space.raw()))},
                          std::max<std::uint32_t>(tf, 1)});
  }
  return out;
}

// --- varint primitives -----------------------------------------------------

TEST(VarintTest, RoundTripValues) {
  std::vector<std::uint8_t> buf;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 1u << 20,
                                  ~0ull >> 1, ~0ull};
  for (std::uint64_t v : values) put_varint(buf, v);
  std::size_t pos = 0;
  for (std::uint64_t v : values) {
    EXPECT_EQ(get_varint(buf, pos), v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, SmallValuesOneByte) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  put_varint(buf, 128);
  EXPECT_EQ(buf.size(), 3u);  // second value took 2 bytes
}

TEST(VarintTest, TruncatedInputThrows) {
  std::vector<std::uint8_t> buf = {0x80};  // continuation with no next byte
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(buf, pos), std::out_of_range);
}

// --- factory ---------------------------------------------------------------

TEST(CodecFactoryTest, MakesAllAndRejectsUnknown) {
  for (const std::string name :
       {"raw", "varint", "group-varint", "block-packed", "stream-vbyte"}) {
    auto codec = make_codec(name);
    ASSERT_NE(codec, nullptr);
    EXPECT_EQ(codec->name(), name);
  }
  EXPECT_THROW(make_codec("lz4"), std::invalid_argument);
}

TEST(CodecFactoryTest, KindResolvesAllNamesAndRejectsUnknown) {
  EXPECT_EQ(codec_kind("raw"), CodecKind::kRaw);
  EXPECT_EQ(codec_kind("varint"), CodecKind::kVarint);
  EXPECT_EQ(codec_kind("group-varint"), CodecKind::kGroupVarint);
  EXPECT_EQ(codec_kind("block-packed"), CodecKind::kBlockPacked);
  EXPECT_EQ(codec_kind("stream-vbyte"), CodecKind::kStreamVByte);
  EXPECT_THROW(codec_kind("lz4"), std::invalid_argument);
}

TEST(CodecFactoryTest, DfDependenceSplitsClassicFromBlockCodecs) {
  // TermStatsModel's build loop hoists the per-posting constant only for
  // df-independent kinds; the block codecs' delta widths track density.
  EXPECT_FALSE(model_is_df_dependent(CodecKind::kRaw));
  EXPECT_FALSE(model_is_df_dependent(CodecKind::kVarint));
  EXPECT_FALSE(model_is_df_dependent(CodecKind::kGroupVarint));
  EXPECT_TRUE(model_is_df_dependent(CodecKind::kBlockPacked));
  EXPECT_TRUE(model_is_df_dependent(CodecKind::kStreamVByte));
  EXPECT_TRUE(is_block_codec(CodecKind::kBlockPacked));
  EXPECT_TRUE(is_block_codec(CodecKind::kStreamVByte));
  EXPECT_FALSE(is_block_codec(CodecKind::kRaw));
  // Denser lists must never model larger: delta widths shrink with df.
  for (const CodecKind kind :
       {CodecKind::kBlockPacked, CodecKind::kStreamVByte}) {
    double prev = model_bytes_per_posting(kind, 1, 5'000'000);
    for (const std::uint64_t df : {10ull, 1'000ull, 100'000ull, 5'000'000ull}) {
      const double bpp = model_bytes_per_posting(kind, df, 5'000'000);
      EXPECT_LE(bpp, prev) << "df=" << df;
      prev = bpp;
    }
  }
}

TEST(CodecFactoryTest, KindModelMatchesVirtualModel) {
  // The size model used by TermStatsModel's build loop (enum dispatch,
  // resolved once) must agree exactly with the per-codec virtuals it
  // replaced on the hot path.
  for (const std::string name :
       {"raw", "varint", "group-varint", "block-packed", "stream-vbyte"}) {
    auto codec = make_codec(name);
    const CodecKind kind = codec_kind(name);
    for (const std::uint64_t df : {1ull, 100ull, 50'000ull}) {
      for (const std::uint64_t n : {1'000ull, 1'000'000ull, 1ull << 40}) {
        EXPECT_DOUBLE_EQ(model_bytes_per_posting(kind, df, n),
                         codec->bytes_per_posting(df, n))
            << name << " df=" << df << " n=" << n;
      }
    }
  }
}

// --- size relations -----------------------------------------------------------

TEST(CodecSizeTest, CompressedSmallerThanRaw) {
  const auto list = freq_sorted_list(5'000, 1);
  RawCodec raw;
  VarintCodec varint;
  GroupVarintCodec gv;
  const auto raw_size = raw.encoded_bytes(list);
  EXPECT_LT(varint.encoded_bytes(list), raw_size);
  EXPECT_LT(gv.encoded_bytes(list), raw_size);
}

TEST(CodecSizeTest, SizeModelTracksActual) {
  for (const std::string name : {"raw", "varint", "group-varint"}) {
    auto codec = make_codec(name);
    const auto list = freq_sorted_list(10'000, 2);
    const double actual =
        static_cast<double>(codec->encoded_bytes(list)) /
        static_cast<double>(list.size());
    const double modeled = codec->bytes_per_posting(list.size(), 1'000'000);
    EXPECT_NEAR(actual, modeled, modeled * 0.5) << name;
  }
}

TEST(CodecSizeTest, RawIsExactlyEightBytesPerPosting) {
  const auto list = freq_sorted_list(100, 3);
  RawCodec raw;
  EXPECT_EQ(raw.encoded_bytes(list), 800u);
  EXPECT_DOUBLE_EQ(raw.bytes_per_posting(100, 1'000'000), 8.0);
}

// --- error handling -------------------------------------------------------------

TEST(CodecErrorTest, RawRejectsMisalignedBuffer) {
  RawCodec raw;
  std::vector<std::uint8_t> bad(13);
  EXPECT_THROW(raw.decode(bad), std::invalid_argument);
}

TEST(CodecErrorTest, GroupVarintRejectsTruncation) {
  GroupVarintCodec gv;
  const auto list = freq_sorted_list(50, 4);
  auto bytes = gv.encode(list);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(gv.decode(bytes), std::out_of_range);
}

// --- parameterized round-trip sweep -----------------------------------------------

struct CodecCase {
  std::string codec;
  std::size_t list_size;
};

class CodecRoundTripTest : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecRoundTripTest, DecodeInvertsEncode) {
  const auto& param = GetParam();
  auto codec = make_codec(param.codec);
  const auto list = freq_sorted_list(param.list_size, 42 + param.list_size);
  const auto encoded = codec->encode(list);
  const auto decoded = codec->decode(encoded);
  ASSERT_EQ(decoded.size(), list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(decoded[i], list[i]) << param.codec << " @ " << i;
  }
}

std::vector<CodecCase> codec_cases() {
  std::vector<CodecCase> cases;
  for (const std::string name :
       {"raw", "varint", "group-varint", "block-packed", "stream-vbyte"}) {
    // 127/128/129 and 255/256/257 straddle the block codecs' 128-posting
    // block boundary (full block, tail of 1, two full blocks, ...).
    for (std::size_t n :
         {0u, 1u, 3u, 4u, 5u, 127u, 128u, 129u, 255u, 256u, 257u, 1000u,
          65537u}) {
      cases.push_back({name, n});
    }
  }
  return cases;
}

// --- block-codec properties --------------------------------------------------
//
// The block codecs cut lists into 128-posting blocks with per-block doc
// deltas taken modulo 2^32; these cases target the places that format
// can go wrong: extreme deltas (wrap-around), every bit width, and the
// doc-sorted order they were designed for.

std::vector<Posting> doc_sorted_list(std::size_t n, std::uint64_t seed,
                                     DocId max_gap = DocId{64}) {
  Rng rng(seed);
  std::vector<Posting> out;
  out.reserve(n);
  DocId doc{};
  for (std::size_t i = 0; i < n; ++i) {
    doc = doc + (1u + static_cast<std::uint32_t>(rng.next_below(max_gap.raw())));
    out.push_back(Posting{
        doc, 1 + static_cast<std::uint32_t>(rng.next_below(7))});
  }
  return out;
}

void expect_round_trip(const PostingCodec& codec,
                       const std::vector<Posting>& list,
                       const std::string& what) {
  const auto decoded = codec.decode(codec.encode(list));
  ASSERT_EQ(decoded.size(), list.size()) << what;
  for (std::size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(decoded[i], list[i]) << what << " @ " << i;
  }
}

TEST(BlockCodecTest, MaxDeltaAndOverflowPatterns) {
  BlockPackedCodec packed;
  StreamVByteCodec svb;
  // Extremes: doc 0 and doc 2^32-1 adjacent in both directions (the
  // delta wraps modulo 2^32), max tf, long runs of identical doc ids.
  const std::vector<std::vector<Posting>> lists = {
      {{DocId{0}, 1}, {DocId{0xFFFFFFFFu}, 0xFFFFFFFFu}},
      {{DocId{0xFFFFFFFFu}, 1}, {DocId{0}, 1}},  // negative delta: full wrap-around
      {{DocId{5}, 0}},                    // tf == 0 must survive
      std::vector<Posting>(300, Posting{DocId{7}, 3}),  // all-zero deltas
      {{DocId{0}, 0}, {DocId{0}, 0}, {DocId{0xFFFFFFFFu}, 0}},
  };
  for (std::size_t i = 0; i < lists.size(); ++i) {
    expect_round_trip(packed, lists[i], "packed case " + std::to_string(i));
    expect_round_trip(svb, lists[i], "svb case " + std::to_string(i));
  }
}

TEST(BlockCodecTest, AdversarialBitWidths) {
  // One list per delta bit width 0..32: every width of the bit-packed
  // path (and every byte length of the stream-vbyte path) gets a block
  // whose packing uses exactly that width.
  BlockPackedCodec packed;
  StreamVByteCodec svb;
  for (std::uint32_t width = 0; width <= 32; ++width) {
    std::vector<Posting> list;
    DocId doc = DocId{3};
    const std::uint32_t delta =
        width == 0 ? 0 : static_cast<std::uint32_t>((1ull << width) - 1);
    for (std::size_t i = 0; i < 200; ++i) {
      list.push_back(Posting{doc, 1 + static_cast<std::uint32_t>(i % 5)});
      doc = doc + delta;  // wraps for wide widths; the format is modulo 2^32
    }
    expect_round_trip(packed, list, "packed width " + std::to_string(width));
    expect_round_trip(svb, list, "svb width " + std::to_string(width));
  }
  // Adversarial tf widths too: tf = 2^w - 1 exercises every tf width.
  for (std::uint32_t width = 1; width <= 32; ++width) {
    std::vector<Posting> list;
    for (std::size_t i = 0; i < 150; ++i) {
      list.push_back(
          Posting{static_cast<DocId>(i * 17),
                  static_cast<std::uint32_t>((1ull << width) - 1)});
    }
    expect_round_trip(packed, list, "packed tf " + std::to_string(width));
    expect_round_trip(svb, list, "svb tf " + std::to_string(width));
  }
}

TEST(BlockCodecTest, DocSortedListsCompressSeveralFold) {
  // The design target: doc-sorted lists (small gaps, small tf's) must
  // round-trip and compress well below raw's 8 B/posting — the
  // codec_compression gate demands >= 2.5x on the DAAT corpus. Inputs:
  // a synthetic list, every list of a real DaatIndex arena, and
  // prefixes of the arena's longest list cut to 2^k - 1, 2^k and
  // 2^k + 1 blocks (short tail block).
  std::vector<std::vector<Posting>> lists = {doc_sorted_list(20'000, 11)};
  CorpusConfig cc;
  cc.num_docs = 6'000;
  cc.vocab_size = 150;
  cc.terms_per_doc = 25;
  cc.seed = 77;
  Rng rng(cc.seed);
  const MaterializedCorpus corpus(cc, rng);
  const MaterializedIndex index(corpus);
  const DaatIndex daat(index);
  std::span<const Posting> longest;
  for (TermId t{}; t < TermId{cc.vocab_size}; ++t) {
    const std::span<const Posting> p = daat.doc_sorted(t).postings();
    lists.emplace_back(p.begin(), p.end());
    if (p.size() > longest.size()) longest = p;
  }
  for (std::uint32_t k = 1; k <= 5; ++k) {
    for (const std::uint32_t blocks : {(1u << k) - 1, 1u << k, (1u << k) + 1}) {
      const std::size_t n = blocks * kBlockPostings - 5;
      ASSERT_LE(n, longest.size()) << "blocks " << blocks;
      lists.emplace_back(longest.begin(),
                         longest.begin() + static_cast<std::ptrdiff_t>(n));
    }
  }
  BlockPackedCodec packed;
  StreamVByteCodec svb;
  Bytes raw_bytes = 0, packed_bytes = 0, svb_bytes = 0;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    expect_round_trip(packed, lists[i], "packed list " + std::to_string(i));
    expect_round_trip(svb, lists[i], "svb list " + std::to_string(i));
    raw_bytes += lists[i].size() * kPostingBytes;
    packed_bytes += block_slice_bytes(CodecKind::kBlockPacked, lists[i]);
    svb_bytes += block_slice_bytes(CodecKind::kStreamVByte, lists[i]);
  }
  EXPECT_LT(packed_bytes * 5 / 2, raw_bytes);
  EXPECT_LT(svb_bytes * 5 / 2, raw_bytes);
  // Bit packing beats byte-aligned stream-vbyte on small gaps.
  EXPECT_LT(packed_bytes, svb_bytes);
}

TEST(BlockCodecTest, TruncationThrows) {
  for (const std::string name : {"block-packed", "stream-vbyte"}) {
    auto codec = make_codec(name);
    const auto list = doc_sorted_list(400, 13);
    auto bytes = codec->encode(list);
    for (const std::size_t keep :
         {bytes.size() - 1, bytes.size() / 2, std::size_t{1}}) {
      auto cut = bytes;
      cut.resize(keep);
      EXPECT_THROW(codec->decode(cut), std::out_of_range) << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllSizes, CodecRoundTripTest, ::testing::ValuesIn(codec_cases()),
    [](const ::testing::TestParamInfo<CodecCase>& param_info) {
      std::string s =
          param_info.param.codec + "_" + std::to_string(param_info.param.list_size);
      for (char& c : s) {
        if (c == '-') c = '_';
      }
      return s;
    });

}  // namespace
}  // namespace ssdse
