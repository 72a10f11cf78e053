// Gate bench: block-codec compression of the DAAT corpus's doc-sorted
// lists (DESIGN.md §13), emitted as BENCH_codec_compression.json and
// validated by scripts/check_bench_json.py; runs in tier-1 as
// codec_compression_smoke.
//
// Every list of the perf_driver daat corpus is sized with
// block_slice_bytes — the bytes the cache layer charges a list under a
// block codec — in doc order, under both block codecs. One gate: the
// block-packed lists must be at least 2.5x smaller than raw 8-byte
// postings. The byte counts are deterministic, so the record
// regenerates identically on any box. Output goes to SSDSE_BENCH_OUT.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/index/block_postings.hpp"

using namespace ssdse;
using namespace ssdse::bench;

namespace {

constexpr double kMinPackedRatio = 2.5;

struct CompressionResult {
  Bytes raw_bytes = 0;
  Bytes packed_bytes = 0;
  Bytes svb_bytes = 0;
  double packed_ratio = 0;
  double svb_ratio = 0;
  std::uint64_t blocks = 0;
};

CompressionResult run_compression(const DaatIndex& daat) {
  CompressionResult c;
  for (TermId t{}; t.raw() < daat.index().vocab_size(); ++t) {
    const auto postings = daat.doc_sorted(t).postings();
    c.raw_bytes += postings.size() * kPostingBytes;
    c.packed_bytes += block_slice_bytes(CodecKind::kBlockPacked, postings);
    c.svb_bytes += block_slice_bytes(CodecKind::kStreamVByte, postings);
    c.blocks += (postings.size() + kBlockPostings - 1) / kBlockPostings;
  }
  c.packed_ratio = static_cast<double>(c.raw_bytes) /
                   static_cast<double>(c.packed_bytes);
  c.svb_ratio =
      static_cast<double>(c.raw_bytes) / static_cast<double>(c.svb_bytes);
  return c;
}

}  // namespace

int main() {
  print_environment("Gate — block-codec compression of doc-sorted lists");
  const DaatWorkload workload(/*queries=*/0);
  const CompressionResult c = run_compression(*workload.daat);
  std::printf(
      "  compression: raw %.1f MiB -> packed %.1f MiB (%.2fx), "
      "svb %.1f MiB (%.2fx), %llu blocks, gate >= %.1fx\n",
      static_cast<double>(c.raw_bytes) / MiB,
      static_cast<double>(c.packed_bytes) / MiB, c.packed_ratio,
      static_cast<double>(c.svb_bytes) / MiB, c.svb_ratio,
      static_cast<unsigned long long>(c.blocks), kMinPackedRatio);

  return finish_bench(
      "codec_compression", {{"packed_ratio", c.packed_ratio >= kMinPackedRatio}},
      [&](telemetry::JsonWriter& w) {
        w.key("compression");
        w.begin_object();
        w.key("raw_bytes");
        w.value(c.raw_bytes);
        w.key("packed_bytes");
        w.value(c.packed_bytes);
        w.key("svb_bytes");
        w.value(c.svb_bytes);
        w.key("packed_ratio");
        w.value(c.packed_ratio);
        w.key("svb_ratio");
        w.value(c.svb_ratio);
        w.key("blocks");
        w.value(c.blocks);
        w.end_object();
      });
}
