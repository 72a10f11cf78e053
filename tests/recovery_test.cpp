// Persistence & warm-restart subsystem (src/recovery) tests: wire
// format hardening, snapshot atomicity, journal torn-tail repair,
// journal replay semantics, crash injection sweeps, and end-to-end
// warm restarts that must serve bit-identical results.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/hybrid/search_system.hpp"
#include "src/recovery/journal.hpp"
#include "src/recovery/recovery_manager.hpp"
#include "src/recovery/snapshot.hpp"
#include "src/recovery/wire.hpp"
#include "src/util/crash_point.hpp"

namespace ssdse {
namespace {

namespace fs = std::filesystem;
using recovery::Frame;
using recovery::RecordType;

// ---------------------------------------------------------------------------
// Helpers.

std::string test_dir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("ssdse_recovery_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

RbImage make_rb(std::uint32_t cb, QueryId first_qid, std::uint32_t slots) {
  RbImage rb;
  rb.cb = cb;
  for (std::uint32_t i = 0; i < slots; ++i) {
    RbSlotImage s;
    s.qid = first_qid + i;
    s.freq = 3 + i;
    s.born = 100 + i;
    s.state = 0;
    s.docs = {{DocId{static_cast<std::uint32_t>(first_qid.raw() + i)}, 0.5f + i},
              {DocId{static_cast<std::uint32_t>(9000 + i)}, 0.25f}};
    rb.slots.push_back(std::move(s));
  }
  return rb;
}

ListEntryImage make_list(TermId term, std::vector<std::uint32_t> blocks) {
  ListEntryImage e;
  e.term = term;
  e.blocks = std::move(blocks);
  e.cached_bytes = 128 * 1024 * e.blocks.size();
  e.freq = 7;
  e.sc_blocks = static_cast<std::uint32_t>(e.blocks.size());
  e.born = 42;
  e.replaceable = false;
  return e;
}

void expect_rb_eq(const RbImage& a, const RbImage& b) {
  EXPECT_EQ(a.cb, b.cb);
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots[i].qid, b.slots[i].qid);
    EXPECT_EQ(a.slots[i].freq, b.slots[i].freq);
    EXPECT_EQ(a.slots[i].born, b.slots[i].born);
    EXPECT_EQ(a.slots[i].state, b.slots[i].state);
    EXPECT_EQ(a.slots[i].docs, b.slots[i].docs);
  }
}

void expect_list_eq(const ListEntryImage& a, const ListEntryImage& b) {
  EXPECT_EQ(a.term, b.term);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.cached_bytes, b.cached_bytes);
  EXPECT_EQ(a.freq, b.freq);
  EXPECT_EQ(a.sc_blocks, b.sc_blocks);
  EXPECT_EQ(a.born, b.born);
  EXPECT_EQ(a.replaceable, b.replaceable);
}

CacheImage small_image() {
  CacheImage image;
  image.logical_now = 777;
  image.rbs = {make_rb(3, QueryId{100}, 6), make_rb(1, QueryId{200}, 4)};
  image.static_rbs = {make_rb(9, QueryId{500}, 6)};
  image.lists = {make_list(TermId{11}, {20, 21}), make_list(TermId{12}, {22})};
  image.static_lists = {make_list(TermId{90}, {30, 31, 32})};
  // Exercise non-trivial slot states.
  image.rbs[0].slots[2].state = 2;
  image.rbs[1].slots[0].state = 1;
  image.lists[0].replaceable = true;
  return image;
}

void expect_image_eq(const CacheImage& a, const CacheImage& b) {
  EXPECT_EQ(a.logical_now, b.logical_now);
  ASSERT_EQ(a.rbs.size(), b.rbs.size());
  for (std::size_t i = 0; i < a.rbs.size(); ++i) expect_rb_eq(a.rbs[i], b.rbs[i]);
  ASSERT_EQ(a.static_rbs.size(), b.static_rbs.size());
  for (std::size_t i = 0; i < a.static_rbs.size(); ++i) {
    expect_rb_eq(a.static_rbs[i], b.static_rbs[i]);
  }
  ASSERT_EQ(a.lists.size(), b.lists.size());
  for (std::size_t i = 0; i < a.lists.size(); ++i) {
    expect_list_eq(a.lists[i], b.lists[i]);
  }
  ASSERT_EQ(a.static_lists.size(), b.static_lists.size());
  for (std::size_t i = 0; i < a.static_lists.size(); ++i) {
    expect_list_eq(a.static_lists[i], b.static_lists[i]);
  }
}

SystemConfig recovery_system(const std::string& dir,
                             CachePolicy policy = CachePolicy::kCblru) {
  SystemConfig cfg;
  cfg.set_num_docs(200'000);
  cfg.set_memory_budget(8 * MiB);
  cfg.cache.policy = policy;
  cfg.training_queries = 2'000;
  cfg.recovery.enabled = true;
  cfg.recovery.dir = dir;
  return cfg;
}

/// Truth oracle: the same query pipeline with caching off recomputes
/// every result from the index — what an always-up run would serve.
std::vector<ScoredDoc> truth_docs(SearchSystem& truth, QueryId qid) {
  return truth.execute(truth.generator().query_for_rank(qid.raw())).result.docs;
}

SystemConfig truth_config() {
  SystemConfig cfg;
  cfg.set_num_docs(200'000);
  cfg.set_memory_budget(8 * MiB);
  cfg.use_cache = false;
  cfg.training_queries = 0;
  return cfg;
}

/// Every live recovered result entry must be bit-identical to what the
/// always-up pipeline computes for that query.
void expect_recovered_results_match_truth(SearchSystem& recovered,
                                          SearchSystem& truth,
                                          std::size_t max_checked = 30) {
  const CacheImage image = recovered.cache_manager().export_image();
  std::size_t checked = 0;
  auto sweep = [&](const std::vector<RbImage>& rbs) {
    for (const RbImage& rb : rbs) {
      for (const RbSlotImage& slot : rb.slots) {
        if (slot.state == 2 || checked >= max_checked) continue;
        ++checked;
        EXPECT_EQ(slot.docs, truth_docs(truth, slot.qid))
            << "recovered query " << slot.qid.raw() << " differs from truth";
      }
    }
  };
  sweep(image.rbs);
  sweep(image.static_rbs);
}

// ---------------------------------------------------------------------------
// Wire format.

TEST(RecoveryWireTest, FrameRoundTrip) {
  std::vector<std::uint8_t> stream;
  recovery::encode_frame(RecordType::kJournalListErase, {1, 2, 3}, stream);
  recovery::encode_frame(RecordType::kRb, {}, stream);

  std::size_t offset = 0;
  auto f1 = recovery::decode_frame(stream.data(), stream.size(), offset);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, RecordType::kJournalListErase);
  EXPECT_EQ(f1->payload, (std::vector<std::uint8_t>{1, 2, 3}));
  auto f2 = recovery::decode_frame(stream.data(), stream.size(), offset);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, RecordType::kRb);
  EXPECT_TRUE(f2->payload.empty());
  EXPECT_EQ(offset, stream.size());
  // Nothing left: a third decode fails without moving the offset.
  EXPECT_FALSE(recovery::decode_frame(stream.data(), stream.size(), offset));
  EXPECT_EQ(offset, stream.size());
}

TEST(RecoveryWireTest, FrameRejectsEveryTruncation) {
  std::vector<std::uint8_t> stream;
  recovery::encode_frame(RecordType::kList, {9, 8, 7, 6, 5}, stream);
  for (std::size_t len = 0; len < stream.size(); ++len) {
    std::size_t offset = 0;
    EXPECT_FALSE(recovery::decode_frame(stream.data(), len, offset))
        << "accepted a frame truncated to " << len << " bytes";
    EXPECT_EQ(offset, 0u);
  }
}

TEST(RecoveryWireTest, FrameRejectsAnyBitFlip) {
  std::vector<std::uint8_t> stream;
  recovery::encode_frame(RecordType::kJournalRbFlush, {0xAB, 0xCD}, stream);
  for (std::size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bad = stream;
      bad[byte] ^= static_cast<std::uint8_t>(1 << bit);
      std::size_t offset = 0;
      EXPECT_FALSE(recovery::decode_frame(bad.data(), bad.size(), offset))
          << "accepted a flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(RecoveryWireTest, RbCodecRoundTrip) {
  const RbImage rb = make_rb(17, QueryId{1000}, 6);
  recovery::ByteWriter w;
  recovery::encode_rb(rb, w);
  recovery::ByteReader r(w.data().data(), w.data().size());
  RbImage back;
  ASSERT_TRUE(recovery::decode_rb(r, back));
  EXPECT_TRUE(r.at_end());
  expect_rb_eq(rb, back);
}

TEST(RecoveryWireTest, ListEntryCodecRoundTrip) {
  ListEntryImage e = make_list(TermId{123}, {5, 6, 9});
  e.replaceable = true;
  recovery::ByteWriter w;
  recovery::encode_list_entry(e, w);
  recovery::ByteReader r(w.data().data(), w.data().size());
  ListEntryImage back;
  ASSERT_TRUE(recovery::decode_list_entry(r, back));
  EXPECT_TRUE(r.at_end());
  expect_list_eq(e, back);
}

// ---------------------------------------------------------------------------
// Snapshot.

TEST(SnapshotTest, RoundTrip) {
  const std::string dir = test_dir("snapshot_roundtrip");
  const std::string path = dir + "/snapshot.ssdse";
  const CacheImage image = small_image();
  ASSERT_TRUE(recovery::write_snapshot(path, image, 0xBEEF));
  auto back = recovery::read_snapshot(path, 0xBEEF);
  ASSERT_TRUE(back.has_value());
  expect_image_eq(image, *back);
}

TEST(SnapshotTest, FingerprintMismatchRejected) {
  const std::string dir = test_dir("snapshot_fprint");
  const std::string path = dir + "/snapshot.ssdse";
  ASSERT_TRUE(recovery::write_snapshot(path, small_image(), 0xBEEF));
  EXPECT_FALSE(recovery::read_snapshot(path, 0xBEE0).has_value());
}

TEST(SnapshotTest, MissingFileIsColdStart) {
  const std::string dir = test_dir("snapshot_missing");
  EXPECT_FALSE(recovery::read_snapshot(dir + "/nope.ssdse", 1).has_value());
}

TEST(SnapshotTest, NeverReadsPartialFile) {
  const std::string dir = test_dir("snapshot_torn");
  const std::string path = dir + "/snapshot.ssdse";
  ASSERT_TRUE(recovery::write_snapshot(path, small_image(), 0xBEEF));
  const auto bytes = read_file(path);
  ASSERT_GT(bytes.size(), 64u);
  // A snapshot truncated anywhere is rejected whole — even when the cut
  // lands exactly on a record boundary (the footer counts catch it).
  for (std::size_t len : {std::size_t{0}, std::size_t{5}, std::size_t{13},
                          bytes.size() / 3, bytes.size() / 2,
                          bytes.size() - 1}) {
    write_file(path, {bytes.begin(), bytes.begin() + len});
    EXPECT_FALSE(recovery::read_snapshot(path, 0xBEEF).has_value())
        << "accepted a snapshot truncated to " << len << " bytes";
  }
  // A corrupt byte in the middle is rejected too.
  auto flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x10;
  write_file(path, flipped);
  EXPECT_FALSE(recovery::read_snapshot(path, 0xBEEF).has_value());
  // And the pristine bytes still verify.
  write_file(path, bytes);
  EXPECT_TRUE(recovery::read_snapshot(path, 0xBEEF).has_value());
}

TEST(SnapshotTest, RewriteReplacesAtomically) {
  const std::string dir = test_dir("snapshot_rewrite");
  const std::string path = dir + "/snapshot.ssdse";
  ASSERT_TRUE(recovery::write_snapshot(path, small_image(), 7));
  CacheImage second;
  second.logical_now = 1;
  second.rbs = {make_rb(2, QueryId{55}, 1)};
  ASSERT_TRUE(recovery::write_snapshot(path, second, 7));
  auto back = recovery::read_snapshot(path, 7);
  ASSERT_TRUE(back.has_value());
  expect_image_eq(second, *back);
  // No tmp file left behind.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// Journal.

std::vector<std::uint8_t> payload_of(std::uint8_t seed, std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(seed + i);
  }
  return p;
}

TEST(JournalTest, AppendScanRoundTrip) {
  const std::string dir = test_dir("journal_roundtrip");
  const std::string path = dir + "/journal.ssdse";
  {
    recovery::JournalWriter w(path);
    w.append(RecordType::kJournalRbFlush, payload_of(1, 10));
    w.append(RecordType::kJournalResultInvalidate, payload_of(2, 8));
    w.append(RecordType::kJournalListErase, payload_of(3, 4));
  }
  const auto scan = recovery::read_journal(path);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].type, RecordType::kJournalRbFlush);
  EXPECT_EQ(scan.records[0].payload, payload_of(1, 10));
  EXPECT_EQ(scan.records[2].payload, payload_of(3, 4));
  EXPECT_EQ(scan.valid_bytes, fs::file_size(path));
  EXPECT_EQ(scan.torn_bytes, 0u);
}

TEST(JournalTest, MissingFileIsEmptyScan) {
  const std::string dir = test_dir("journal_missing");
  const auto scan = recovery::read_journal(dir + "/nope.ssdse");
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_EQ(scan.torn_bytes, 0u);
}

TEST(JournalTest, TornTailTruncatedAtEveryByteOffset) {
  const std::string dir = test_dir("journal_torn");
  const std::string path = dir + "/journal.ssdse";
  {
    recovery::JournalWriter w(path);
    w.append(RecordType::kJournalRbFlush, payload_of(10, 24));
    w.append(RecordType::kJournalListInstall, payload_of(20, 5));
    w.append(RecordType::kJournalListErase, payload_of(30, 17));
  }
  const auto bytes = read_file(path);
  // Record boundaries, recovered by decoding the intact stream.
  std::vector<std::size_t> boundaries{0};
  {
    std::size_t offset = 0;
    while (recovery::decode_frame(bytes.data(), bytes.size(), offset)) {
      boundaries.push_back(offset);
    }
  }
  ASSERT_EQ(boundaries.size(), 4u);

  const std::string cut = dir + "/cut.ssdse";
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    write_file(cut, {bytes.begin(), bytes.begin() + len});
    const auto scan = recovery::read_journal(cut);
    // The longest consistent prefix is the last boundary at or below the
    // cut; everything after it is reported torn.
    std::size_t want_records = 0;
    while (want_records + 1 < boundaries.size() &&
           boundaries[want_records + 1] <= len) {
      ++want_records;
    }
    EXPECT_EQ(scan.records.size(), want_records) << "cut at " << len;
    EXPECT_EQ(scan.valid_bytes, boundaries[want_records]) << "cut at " << len;
    EXPECT_EQ(scan.torn_bytes, len - boundaries[want_records])
        << "cut at " << len;
    for (std::size_t i = 0; i < scan.records.size(); ++i) {
      EXPECT_EQ(scan.records[i].payload,
                payload_of(static_cast<std::uint8_t>(10 * (i + 1)),
                           i == 0 ? 24 : i == 1 ? 5 : 17));
    }
    // Repair truncates to the consistent prefix; appending then extends
    // a clean stream.
    ASSERT_TRUE(recovery::truncate_journal(cut, scan.valid_bytes));
    {
      recovery::JournalWriter w(cut);
      w.append(RecordType::kJournalResultInvalidate, payload_of(40, 3));
    }
    const auto repaired = recovery::read_journal(cut);
    ASSERT_EQ(repaired.records.size(), want_records + 1);
    EXPECT_EQ(repaired.records.back().payload, payload_of(40, 3));
    EXPECT_EQ(repaired.torn_bytes, 0u);
  }
}

TEST(JournalTest, InjectedByteTearPersistsExactPrefix) {
  const std::string dir = test_dir("journal_tear");
  const std::string path = dir + "/journal.ssdse";
  recovery::JournalWriter w(path);
  w.append(RecordType::kJournalRbFlush, payload_of(1, 30));
  const Bytes first_end = w.bytes_written();

  // Tear 7 bytes into the second record's frame.
  CrashInjector::instance().arm_byte(first_end + 7);
  EXPECT_THROW(w.append(RecordType::kJournalListInstall, payload_of(2, 30)),
               CrashException);
  EXPECT_FALSE(CrashInjector::instance().armed());  // crash_now disarms
  EXPECT_EQ(fs::file_size(path), first_end + 7);

  const auto scan = recovery::read_journal(path);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].payload, payload_of(1, 30));
  EXPECT_EQ(scan.valid_bytes, first_end);
  EXPECT_EQ(scan.torn_bytes, 7u);
}

TEST(CrashInjectorTest, SiteHookFiresOnNthHit) {
  auto& inj = CrashInjector::instance();
  inj.arm_site("unit.site", 3);
  EXPECT_NO_THROW(SSDSE_CRASH_POINT("unit.site"));
  EXPECT_NO_THROW(SSDSE_CRASH_POINT("other.site"));  // different site
  EXPECT_NO_THROW(SSDSE_CRASH_POINT("unit.site"));
  EXPECT_THROW(SSDSE_CRASH_POINT("unit.site"), CrashException);
  // Disarmed after firing: the hot path is free again.
  EXPECT_FALSE(inj.armed());
  EXPECT_NO_THROW(SSDSE_CRASH_POINT("unit.site"));
}

// ---------------------------------------------------------------------------
// Journal replay.

Frame rb_flush_frame(const RbImage& rb) {
  recovery::ByteWriter w;
  recovery::encode_rb(rb, w);
  return Frame{RecordType::kJournalRbFlush, w.take()};
}

TEST(ReplayTest, RbFlushReplacesBlockAndInvalidatesOldCopies) {
  CacheImage image;
  image.rbs = {make_rb(1, QueryId{100}, 6), make_rb(2, QueryId{200}, 6)};

  // A new RB lands on block 2 and re-caches query 103 (older copy lives
  // in block 1).
  RbImage fresh = make_rb(2, QueryId{300}, 5);
  fresh.slots[0].qid = QueryId{103};
  ASSERT_TRUE(recovery::apply_journal_record(rb_flush_frame(fresh), image));

  ASSERT_EQ(image.rbs.size(), 2u);
  EXPECT_EQ(image.rbs.front().cb, 2u);  // MRU position
  EXPECT_EQ(image.rbs.front().slots[0].qid.raw(), 103u);
  // Old copy of 103 in block 1 is now invalid; its neighbours live on.
  const RbImage& old = image.rbs.back();
  EXPECT_EQ(old.cb, 1u);
  EXPECT_EQ(old.slots[3].qid, QueryId{103});
  EXPECT_EQ(old.slots[3].state, 2);
  EXPECT_EQ(old.slots[2].state, 0);
}

TEST(ReplayTest, ReplayIsIdempotent) {
  CacheImage image;
  image.rbs = {make_rb(1, QueryId{100}, 6)};
  const Frame f = rb_flush_frame(make_rb(2, QueryId{300}, 6));
  ASSERT_TRUE(recovery::apply_journal_record(f, image));
  ASSERT_TRUE(recovery::apply_journal_record(f, image));
  ASSERT_EQ(image.rbs.size(), 2u);
  EXPECT_EQ(image.rbs.front().cb, 2u);
}

TEST(ReplayTest, InvalidateAndListRecords) {
  CacheImage image = small_image();

  {  // Result invalidation hits dynamic and static copies.
    recovery::ByteWriter w;
    w.u64(500);  // lives in static_rbs[0].slots[0]
    ASSERT_TRUE(recovery::apply_journal_record(
        Frame{RecordType::kJournalResultInvalidate, w.take()}, image));
    EXPECT_EQ(image.static_rbs[0].slots[0].state, 2);
  }
  {  // List install evicts the same term and block-colliding entries.
    ListEntryImage e = make_list(TermId{40}, {21, 22});  // collides with terms 11, 12
    recovery::ByteWriter w;
    recovery::encode_list_entry(e, w);
    ASSERT_TRUE(recovery::apply_journal_record(
        Frame{RecordType::kJournalListInstall, w.take()}, image));
    ASSERT_EQ(image.lists.size(), 1u);
    EXPECT_EQ(image.lists.front().term.raw(), 40u);
  }
  {  // List erase.
    recovery::ByteWriter w;
    w.u32(40);
    ASSERT_TRUE(recovery::apply_journal_record(
        Frame{RecordType::kJournalListErase, w.take()}, image));
    EXPECT_TRUE(image.lists.empty());
  }
  {  // Undecodable payload is rejected, not applied.
    recovery::ByteWriter w;
    w.u8(1);  // too short for any record
    EXPECT_FALSE(recovery::apply_journal_record(
        Frame{RecordType::kJournalRbFlush, w.take()}, image));
  }
}

// ---------------------------------------------------------------------------
// End-to-end warm restart.

TEST(WarmRestartTest, ServesPriorSsdResultsBitIdentical) {
  const std::string dir = test_dir("warm_cblru");
  const SystemConfig cfg = recovery_system(dir);

  std::vector<QueryId> on_ssd;
  {
    SearchSystem a(cfg);
    EXPECT_FALSE(a.warm_started());
    a.run(4'000);
    const CacheImage image = a.cache_manager().export_image();
    for (const RbImage& rb : image.rbs) {
      for (const RbSlotImage& slot : rb.slots) {
        if (slot.state != 2 && on_ssd.size() < 20) on_ssd.push_back(slot.qid);
      }
    }
    ASSERT_FALSE(on_ssd.empty()) << "churn did not populate the SSD cache";
    ASSERT_TRUE(a.checkpoint());
  }

  SearchSystem b(cfg);
  ASSERT_TRUE(b.warm_started());
  ASSERT_NE(b.recovery_stats(), nullptr);
  EXPECT_TRUE(b.recovery_stats()->warm);
  EXPECT_GE(b.recovery_stats()->result_entries_recovered, on_ssd.size());

  SearchSystem truth(truth_config());
  for (QueryId qid : on_ssd) {
    const auto out = b.execute(b.generator().query_for_rank(qid.raw()));
    EXPECT_TRUE(out.result_from_cache) << "query " << qid.raw() << " missed";
    EXPECT_EQ(out.result.docs, truth_docs(truth, qid)) << "query " << qid.raw();
  }
}

TEST(WarmRestartTest, RestoredListsServeFromSsd) {
  const std::string dir = test_dir("warm_lists");
  const SystemConfig cfg = recovery_system(dir);

  std::vector<TermId> terms;
  {
    SearchSystem a(cfg);
    a.run(4'000);
    const CacheImage image = a.cache_manager().export_image();
    for (const ListEntryImage& e : image.lists) {
      if (terms.size() < 10) terms.push_back(e.term);
    }
    ASSERT_FALSE(terms.empty()) << "no lists reached the SSD cache";
    ASSERT_TRUE(a.checkpoint());
  }

  SearchSystem b(cfg);
  ASSERT_TRUE(b.warm_started());
  EXPECT_GE(b.recovery_stats()->list_entries_recovered, terms.size());
  for (TermId term : terms) {
    Micros t = micros(0);
    EXPECT_EQ(b.cache_manager().fetch_list(term, &t), Tier::kSsd)
        << "term " << term.raw() << " not served from the recovered SSD cache";
  }
}

TEST(WarmRestartTest, CbslruStaticPartitionSurvivesRestart) {
  const std::string dir = test_dir("warm_cbslru");
  const SystemConfig cfg = recovery_system(dir, CachePolicy::kCbslru);

  QueryId hottest{};
  {
    SearchSystem a(cfg);
    ASSERT_TRUE(a.log_analysis().has_value());
    hottest = a.log_analysis()->queries_by_freq[0].first;
    ASSERT_TRUE(a.cache_manager().ssd_results()->is_static(hottest));
    a.run(1'000);
    ASSERT_TRUE(a.checkpoint());
  }

  SearchSystem b(cfg);
  ASSERT_TRUE(b.warm_started());
  EXPECT_TRUE(b.cache_manager().ssd_results()->is_static(hottest));
  SearchSystem truth(truth_config());
  const auto out = b.execute(b.generator().query_for_rank(hottest.raw()));
  EXPECT_TRUE(out.result_from_cache);
  EXPECT_EQ(out.result.docs, truth_docs(truth, hottest));
}

TEST(WarmRestartTest, FingerprintMismatchForcesColdStart) {
  const std::string dir = test_dir("warm_fprint");
  {
    SearchSystem a(recovery_system(dir));
    a.run(500);
    ASSERT_TRUE(a.checkpoint());
  }
  SystemConfig other = recovery_system(dir);
  other.cache.ssd_result_capacity *= 2;  // resized cache: blocks re-map
  SearchSystem b(other);
  EXPECT_FALSE(b.warm_started());
  ASSERT_NE(b.recovery_stats(), nullptr);
  EXPECT_TRUE(b.recovery_stats()->attempted);
  EXPECT_FALSE(b.recovery_stats()->warm);
}

TEST(WarmRestartTest, LruBaselineDoesNotPersist) {
  const std::string dir = test_dir("warm_lru");
  SystemConfig cfg = recovery_system(dir, CachePolicy::kLru);
  SearchSystem a(cfg);
  a.run(300);
  EXPECT_FALSE(a.checkpoint());  // no persistence machinery attached
  EXPECT_EQ(a.recovery_stats(), nullptr);
  EXPECT_FALSE(a.warm_started());
}

// A snapshot whose every frame checks out can still describe a cache
// this one cannot hold. Each case mutates one field of a real image and
// re-writes it through write_snapshot; the restart must start cold,
// count the rejection, and then serve exactly as a fresh cold start.
// The CBLRU image covers the dynamic sections, the CBSLRU one the
// pinned sections, which share the cache files with the dynamic ones.
TEST(WarmRestartTest, HostileSnapshotStartsCold) {
  for (const CachePolicy policy : {CachePolicy::kCblru, CachePolicy::kCbslru}) {
    const std::string tag =
        policy == CachePolicy::kCblru ? "cblru" : "cbslru";
    SCOPED_TRACE(tag);
    CacheImage image;
    CacheConfig cc;
    std::uint32_t vocab = 0;
    {
      SearchSystem a(recovery_system(test_dir("hostile_base_" + tag), policy));
      a.run(4'000);
      ASSERT_TRUE(a.checkpoint());
      image = a.cache_manager().export_image();
      cc = a.cache_manager().config();
      vocab = a.index().vocab_size();
    }

    struct Case {
      const char* name;
      std::function<void(CacheImage&)> mutate;
    };
    std::vector<Case> cases;
    if (policy == CachePolicy::kCblru) {
      ASSERT_GE(image.rbs.size(), 2u);
      ASSERT_GE(image.lists.size(), 2u);
      const auto rb_blocks = static_cast<std::uint32_t>(
          cc.ssd_result_capacity / cc.block_bytes);
      const auto list_blocks =
          static_cast<std::uint32_t>(cc.ssd_list_capacity / cc.block_bytes);
      // The probe's "list block equal to an RB's block": an RB's block
      // id that a second list entry also holds in the list file.
      std::size_t victim = 0;
      std::uint32_t shared = 0;
      bool found = false;
      for (std::size_t i = 0; i < image.lists.size() && !found; ++i) {
        for (const RbImage& rb : image.rbs) {
          if (std::find(image.lists[i].blocks.begin(),
                        image.lists[i].blocks.end(),
                        rb.cb) != image.lists[i].blocks.end()) {
            victim = i == 0 ? 1 : 0;
            shared = rb.cb;
            found = true;
            break;
          }
        }
      }
      ASSERT_TRUE(found) << "no RB block id is also a list block";
      cases = {
          {"rb_block_out_of_range",
           [=](CacheImage& im) { im.rbs[0].cb = rb_blocks; }},
          {"list_block_equals_rb_block",
           [=](CacheImage& im) { im.lists[victim].blocks[0] = shared; }},
          {"two_rbs_share_a_block",
           [](CacheImage& im) { im.rbs[1].cb = im.rbs[0].cb; }},
          {"list_block_out_of_range",
           [=](CacheImage& im) { im.lists[0].blocks.back() = list_blocks; }},
          {"rb_over_slot_capacity",
           [&](CacheImage& im) {
             im.rbs[0].slots.resize(cc.results_per_rb() + 1,
                                    im.rbs[0].slots.front());
           }},
          {"slot_state_out_of_range",
           [](CacheImage& im) { im.rbs[0].slots[0].state = 3; }},
          {"list_without_blocks",
           [](CacheImage& im) { im.lists[0].blocks.clear(); }},
          {"duplicate_list_term",
           [](CacheImage& im) { im.lists[1].term = im.lists[0].term; }},
          {"term_outside_vocabulary",
           [=](CacheImage& im) { im.lists[0].term = TermId{vocab}; }},
      };
    } else {
      ASSERT_GE(image.static_rbs.size(), 2u);
      ASSERT_FALSE(image.lists.empty());
      ASSERT_FALSE(image.static_lists.empty());
      cases = {
          {"static_rbs_share_a_block",
           [](CacheImage& im) { im.static_rbs[1].cb = im.static_rbs[0].cb; }},
          {"static_list_shares_a_dynamic_block",
           [](CacheImage& im) {
             im.static_lists[0].blocks[0] = im.lists[0].blocks[0];
           }},
          {"static_term_also_dynamic",
           [](CacheImage& im) { im.static_lists[0].term = im.lists[0].term; }},
      };
    }

    // A fresh cold start's first queries: what every rejected restart
    // must reproduce, result bits and simulated latency alike.
    std::vector<SearchSystem::QueryOutcome> cold;
    {
      SearchSystem fresh(
          recovery_system(test_dir("hostile_cold_" + tag), policy));
      ASSERT_FALSE(fresh.warm_started());
      for (int i = 0; i < 300; ++i) {
        cold.push_back(fresh.execute(fresh.generator().next()));
      }
    }

    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      const std::string dir = test_dir("hostile_" + tag + "_" + c.name);
      CacheImage hostile = image;
      c.mutate(hostile);
      ASSERT_TRUE(recovery::write_snapshot(
          dir + "/snapshot.ssdse", hostile,
          recovery::cache_config_fingerprint(cc)));

      SearchSystem b(recovery_system(dir, policy));
      EXPECT_FALSE(b.warm_started());
      const recovery::RecoveryStats* stats = b.recovery_stats();
      ASSERT_NE(stats, nullptr);
      EXPECT_EQ(stats->images_rejected, 1u);
      EXPECT_FALSE(stats->warm);
      EXPECT_EQ(stats->result_entries_recovered, 0u);
      EXPECT_EQ(stats->list_entries_recovered, 0u);
      for (const SearchSystem::QueryOutcome& want : cold) {
        const auto got = b.execute(b.generator().next());
        ASSERT_EQ(got.result.query, want.result.query);
        EXPECT_EQ(got.result.docs, want.result.docs);
        EXPECT_EQ(got.result_from_cache, want.result_from_cache);
        EXPECT_EQ(got.response, want.response);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Crash injection sweeps: for every injected crash point the restarted
// system must come up consistent — every surviving entry bit-identical
// to the always-up pipeline, and the system must keep running.

TEST(CrashSweepTest, SiteCrashesRecoverConsistently) {
  SearchSystem truth(truth_config());
  const struct {
    const char* site;
    std::uint64_t hits;
    std::uint64_t snapshot_every;
  } cases[] = {
      {"write_buffer.group_ready", 1, 0},
      {"write_buffer.group_ready", 3, 0},
      {"ssd_cache_file.write", 1, 0},
      {"ssd_cache_file.write", 4, 0},
      // With periodic checkpoints the journal resets mid-run; the crash
      // then lands after a snapshot + partial journal.
      {"ssd_cache_file.write", 6, 700},
  };
  int crashes = 0;
  for (const auto& c : cases) {
    const std::string dir = test_dir(std::string("crash_") + c.site + "_" +
                                     std::to_string(c.hits) + "_" +
                                     std::to_string(c.snapshot_every));
    SystemConfig cfg = recovery_system(dir);
    cfg.recovery.snapshot_every = c.snapshot_every;

    auto a = std::make_unique<SearchSystem>(cfg);
    CrashInjector::instance().arm_site(c.site, c.hits);
    bool crashed = false;
    try {
      a->run(3'000);
    } catch (const CrashException&) {
      crashed = true;
    }
    CrashInjector::instance().disarm();
    ASSERT_TRUE(crashed) << c.site << " was never reached";
    ++crashes;
    a.reset();  // the process died; abandon it

    SearchSystem b(cfg);
    ASSERT_TRUE(b.warm_started()) << c.site;
    expect_recovered_results_match_truth(b, truth);
    // The recovered system keeps serving.
    b.run(500);
    EXPECT_EQ(b.metrics().queries(), 500u);
  }
  EXPECT_EQ(crashes, 5);
}

TEST(CrashSweepTest, JournalTornAtArbitraryByteOffsetsRecovers) {
  SearchSystem truth(truth_config());
  // Absolute journal offsets to tear at: inside the first frame header,
  // on and around payload bytes, and deep in the stream.
  const std::uint64_t offsets[] = {0, 1, 8, 13, 14, 64, 321, 2'000};
  for (std::uint64_t off : offsets) {
    const std::string dir = test_dir("tear_" + std::to_string(off));
    const SystemConfig cfg = recovery_system(dir);

    auto a = std::make_unique<SearchSystem>(cfg);
    // Arm after construction: the initial (empty) checkpoint has already
    // reset the journal, so appends count from offset 0.
    CrashInjector::instance().arm_byte(off);
    bool crashed = false;
    try {
      a->run(3'000);
    } catch (const CrashException&) {
      crashed = true;
    }
    CrashInjector::instance().disarm();
    ASSERT_TRUE(crashed) << "journal never reached offset " << off;
    a.reset();
    // The torn append persisted exactly the prefix before the armed byte.
    EXPECT_EQ(fs::file_size(fs::path(dir) / "journal.ssdse"), off);

    SearchSystem b(cfg);
    ASSERT_TRUE(b.warm_started()) << "offset " << off;
    const auto* stats = b.recovery_stats();
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->journal_valid_bytes + stats->journal_torn_bytes, off);
    EXPECT_EQ(stats->journal_records_rejected, 0u);
    expect_recovered_results_match_truth(b, truth);
    b.run(300);
    EXPECT_EQ(b.metrics().queries(), 300u);
  }
}

}  // namespace
}  // namespace ssdse
