// Ingest-log durability and crash-injection tests (DESIGN.md §12).
//
// Write-ahead discipline under test: a crash torn into any log append
// leaves the on-disk prefix describing exactly the mutations that were
// applied (the torn record's mutation never ran), so a warm restart
// that replays the repaired prefix against a fresh base index
// reconverges bit-identically to a rebuild-from-scratch oracle.
#include <bit>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/daat.hpp"
#include "src/hybrid/search_system.hpp"
#include "src/ingest/ingest_log.hpp"
#include "src/util/crash_point.hpp"
#include "src/util/rng.hpp"

namespace ssdse {
namespace {

namespace fs = std::filesystem;

std::string test_dir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("ssdse_ingest_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

CorpusConfig small_corpus() {
  CorpusConfig cc;
  cc.num_docs = 1'200;
  cc.vocab_size = 300;
  cc.terms_per_doc = 12;
  cc.seed = 9;
  return cc;
}

SystemConfig ingest_recovery_system(const CorpusConfig& cc,
                                    const std::string& dir) {
  SystemConfig cfg;
  cfg.corpus = cc;
  cfg.log.vocab_size = cc.vocab_size;
  cfg.log.distinct_queries = 2'000;
  cfg.set_memory_budget(2 * MiB);
  cfg.cache.ssd_result_capacity = 4 * MiB;
  cfg.cache.ssd_list_capacity = 16 * MiB;
  cfg.training_queries = 500;
  cfg.ingest.enabled = true;
  cfg.recovery.enabled = true;
  cfg.recovery.dir = dir;
  return cfg;
}

ingest::DocBag make_bag(Rng& rng, std::uint32_t vocab, std::size_t terms) {
  ingest::DocBag bag;
  while (bag.size() < terms) {
    const auto t = static_cast<TermId>(rng.next_below(vocab));
    bool dup = false;
    for (const auto& [bt, tf] : bag) dup |= bt == t;
    if (!dup) bag.emplace_back(t, 1 + static_cast<std::uint32_t>(
                                        rng.next_below(4)));
  }
  std::sort(bag.begin(), bag.end());
  return bag;
}

void expect_docs_eq(const ResultEntry& got, const ResultEntry& want,
                    QueryId qid) {
  ASSERT_EQ(got.docs.size(), want.docs.size()) << "query " << qid.raw();
  for (std::size_t i = 0; i < got.docs.size(); ++i) {
    EXPECT_EQ(got.docs[i].doc, want.docs[i].doc)
        << "query " << qid.raw() << " rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.docs[i].score),
              std::bit_cast<std::uint32_t>(want.docs[i].score))
        << "query " << qid.raw() << " rank " << i;
  }
}

/// Compare a restarted system's DAAT results against an oracle index
/// rebuilt from the mirrored documents.
void expect_matches_oracle(MaterializedIndex& restarted,
                           const CorpusConfig& cc,
                           const std::vector<ingest::DocBag>& mirror_docs) {
  MaterializedCorpus oracle_corpus(cc, mirror_docs);
  MaterializedIndex oracle_index(oracle_corpus);
  ASSERT_EQ(restarted.num_docs(), oracle_index.num_docs());
  const DaatIndex restarted_daat(restarted);
  const DaatIndex oracle_daat(oracle_index);
  DaatProcessor a(10), b(10);
  Rng qrng(77);
  for (QueryId qid{}; qid < QueryId{100}; ++qid) {
    Query q{qid, {}};
    const std::size_t terms = 1 + qrng.next_below(3);
    for (std::size_t i = 0; i < terms; ++i) {
      q.terms.push_back(static_cast<TermId>(qrng.next_below(cc.vocab_size)));
    }
    const ResultEntry got = a.intersect(restarted_daat, q, nullptr);
    const ResultEntry want = b.intersect(oracle_daat, q, nullptr);
    expect_docs_eq(got, want, qid);
  }
}

// --- Log encode/scan/repair --------------------------------------------

TEST(IngestLogTest, RoundTripAllRecordTypes) {
  const std::string path = test_dir("roundtrip") + "/ingest.ssdse";
  {
    ingest::IngestLog log(path);
    log.append_ingest(DocId{100}, 5, {{TermId{1}, 2}, {TermId{7}, 1}});
    log.append_delete(DocId{42}, 6);
    log.append_merge_seal(101, 7);
    log.append_ingest(DocId{101}, 8, {});  // empty bag is legal on the wire
  }
  const auto scan = ingest::IngestLog::scan(path);
  ASSERT_EQ(scan.records.size(), 4u);
  EXPECT_EQ(scan.torn_bytes, 0u);
  EXPECT_EQ(scan.valid_bytes, fs::file_size(path));

  EXPECT_EQ(scan.records[0].type, recovery::RecordType::kIngest);
  EXPECT_EQ(scan.records[0].doc.raw(), 100u);
  EXPECT_EQ(scan.records[0].tick, 5u);
  ASSERT_EQ(scan.records[0].bag.size(), 2u);
  EXPECT_EQ(scan.records[0].bag[1], (std::pair<TermId, std::uint32_t>{7, 1}));

  EXPECT_EQ(scan.records[1].type, recovery::RecordType::kDelete);
  EXPECT_EQ(scan.records[1].doc, DocId{42});
  EXPECT_EQ(scan.records[1].tick, 6u);

  EXPECT_EQ(scan.records[2].type, recovery::RecordType::kMergeSeal);
  EXPECT_EQ(scan.records[2].doc_count, 101u);

  EXPECT_TRUE(scan.records[3].bag.empty());
}

TEST(IngestLogTest, MissingFileScansEmpty) {
  const auto scan =
      ingest::IngestLog::scan(test_dir("missing") + "/nope.ssdse");
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_EQ(scan.torn_bytes, 0u);
}

TEST(IngestLogTest, TornTailScansToPrefixAndRepairs) {
  const std::string path = test_dir("torn") + "/ingest.ssdse";
  Bytes first_two = 0;
  {
    ingest::IngestLog log(path);
    log.append_ingest(DocId{10}, 1, {{TermId{3}, 1}});
    log.append_delete(DocId{4}, 2);
    first_two = log.bytes_written();
    // Tear 5 bytes into the third record.
    CrashInjector::instance().arm_byte(first_two + 5);
    EXPECT_THROW(log.append_merge_seal(11, 3), CrashException);
  }
  auto scan = ingest::IngestLog::scan(path);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.valid_bytes, first_two);
  EXPECT_EQ(scan.torn_bytes, 5u);

  ASSERT_TRUE(ingest::IngestLog::repair(path, scan.valid_bytes));
  EXPECT_EQ(fs::file_size(path), first_two);
  {
    ingest::IngestLog log(path);
    log.append_merge_seal(11, 4);  // extends the repaired prefix
  }
  scan = ingest::IngestLog::scan(path);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[2].type, recovery::RecordType::kMergeSeal);
  EXPECT_EQ(scan.torn_bytes, 0u);
}

TEST(IngestLogTest, ForeignRecordTypeEndsPrefix) {
  const std::string path = test_dir("foreign") + "/ingest.ssdse";
  Bytes first = 0;
  {
    ingest::IngestLog log(path);
    log.append_delete(DocId{1}, 1);
    first = log.bytes_written();
  }
  {
    // A cache-journal record in the ingest log is corruption by design.
    recovery::JournalWriter w(path);
    recovery::ByteWriter payload;
    payload.u64(99);
    w.append(recovery::RecordType::kJournalResultInvalidate, payload.take());
  }
  const auto scan = ingest::IngestLog::scan(path);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, first);
  EXPECT_GT(scan.torn_bytes, 0u);
}

// --- Warm restart reconvergence ----------------------------------------

TEST(IngestRecoveryTest, CleanRestartReplaysChurn) {
  const CorpusConfig cc = small_corpus();
  const std::string dir = test_dir("clean_restart");
  const SystemConfig cfg = ingest_recovery_system(cc, dir);
  Rng corpus_rng(cc.seed);
  MaterializedCorpus corpus(cc, corpus_rng);
  std::vector<ingest::DocBag> mirror;
  for (DocId d{}; d < static_cast<DocId>(corpus.num_docs()); ++d) mirror.push_back(corpus.doc(d));

  {
    MaterializedIndex index(corpus);
    SearchSystem a(cfg, index, corpus);
    Rng churn(61);
    for (int i = 0; i < 25; ++i) {
      (void)a.execute(a.generator().next());
      const ingest::DocBag bag = make_bag(churn, cc.vocab_size, 8);
      ASSERT_EQ(a.ingest_document(bag).raw(), mirror.size());
      mirror.push_back(bag);
      if (i % 5 == 4) {
        const auto victim =
            static_cast<DocId>(churn.next_below(index.num_docs()));
        if (a.delete_document(victim)) mirror[victim.raw()].clear();
      }
    }
    a.merge_now();
    EXPECT_GT(a.ingest_stats().merges, 0u);
  }

  // Restart against a FRESH base index (the on-disk index does not
  // carry the crashed process's in-memory merges).
  MaterializedIndex restarted(corpus);
  SearchSystem b(cfg, restarted, corpus);
  EXPECT_GT(b.ingest_stats().replayed_records, 0u);
  EXPECT_EQ(b.ingest_stats().replay_torn_bytes, 0u);
  EXPECT_EQ(b.ingest_stats().docs, 25u);
  expect_matches_oracle(restarted, cc, mirror);
}

TEST(IngestRecoveryTest, CrashMidIngestRecoversToPrefix) {
  const CorpusConfig cc = small_corpus();
  const std::string dir = test_dir("crash_ingest");
  const SystemConfig cfg = ingest_recovery_system(cc, dir);
  Rng corpus_rng(cc.seed);
  MaterializedCorpus corpus(cc, corpus_rng);
  std::vector<ingest::DocBag> mirror;
  for (DocId d{}; d < static_cast<DocId>(corpus.num_docs()); ++d) mirror.push_back(corpus.doc(d));

  {
    MaterializedIndex index(corpus);
    SearchSystem a(cfg, index, corpus);
    Rng churn(62);
    for (int i = 0; i < 10; ++i) {
      const ingest::DocBag bag = make_bag(churn, cc.vocab_size, 6);
      ASSERT_EQ(a.ingest_document(bag).raw(), mirror.size());
      mirror.push_back(bag);
    }
    // Arm a tear a few bytes into the NEXT ingest append: the record is
    // torn before the in-memory apply, so the crashed mutation never
    // happened (write-ahead ordering).
    const fs::path log_path = fs::path(dir) / "ingest.ssdse";
    CrashInjector::instance().arm_byte(fs::file_size(log_path) + 3);
    bool crashed = false;
    try {
      (void)a.ingest_document(make_bag(churn, cc.vocab_size, 6));
    } catch (const CrashException&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);
    // Abandon `a` as died-at-this-point.
  }

  MaterializedIndex restarted(corpus);
  SearchSystem b(cfg, restarted, corpus);
  EXPECT_GT(b.ingest_stats().replay_torn_bytes, 0u);
  EXPECT_EQ(b.ingest_stats().docs, 10u);  // torn 11th never applied
  expect_matches_oracle(restarted, cc, mirror);

  // The repaired log accepts new appends cleanly after restart.
  (void)b.ingest_document({{TermId{1}, 1}});
  mirror.push_back({{TermId{1}, 1}});
  expect_matches_oracle(restarted, cc, mirror);
}

TEST(IngestRecoveryTest, CrashMidMergeSealRecoversPreMergeState) {
  const CorpusConfig cc = small_corpus();
  const std::string dir = test_dir("crash_merge");
  const SystemConfig cfg = ingest_recovery_system(cc, dir);
  Rng corpus_rng(cc.seed);
  MaterializedCorpus corpus(cc, corpus_rng);
  std::vector<ingest::DocBag> mirror;
  for (DocId d{}; d < static_cast<DocId>(corpus.num_docs()); ++d) mirror.push_back(corpus.doc(d));

  {
    MaterializedIndex index(corpus);
    SearchSystem a(cfg, index, corpus);
    Rng churn(63);
    for (int i = 0; i < 8; ++i) {
      const ingest::DocBag bag = make_bag(churn, cc.vocab_size, 6);
      (void)a.ingest_document(bag);
      mirror.push_back(bag);
    }
    ASSERT_TRUE(a.delete_document(DocId{3}));
    mirror[3].clear();
    // Tear inside the kMergeSeal record itself: the merge never ran.
    const fs::path log_path = fs::path(dir) / "ingest.ssdse";
    CrashInjector::instance().arm_byte(fs::file_size(log_path) + 4);
    bool crashed = false;
    try {
      a.merge_now();
    } catch (const CrashException&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);
  }

  // Replay recovers the pre-merge (segment + tombstone) state; merging
  // is content-neutral, so results still match the full oracle.
  MaterializedIndex restarted(corpus);
  SearchSystem b(cfg, restarted, corpus);
  EXPECT_GT(b.ingest_stats().replay_torn_bytes, 0u);
  EXPECT_EQ(b.ingest_stats().merges, 0u);  // no seal committed
  ASSERT_NE(b.live_index(), nullptr);
  EXPECT_FALSE(b.live_index()->clean());
  expect_matches_oracle(restarted, cc, mirror);

  // A post-restart merge folds the replayed segment; still exact.
  b.merge_now();
  EXPECT_EQ(b.ingest_stats().merges, 1u);
  expect_matches_oracle(restarted, cc, mirror);
}

TEST(IngestRecoveryTest, CommittedSealReplaysMergeDeterministically) {
  const CorpusConfig cc = small_corpus();
  const std::string dir = test_dir("seal_replay");
  const SystemConfig cfg = ingest_recovery_system(cc, dir);
  Rng corpus_rng(cc.seed);
  MaterializedCorpus corpus(cc, corpus_rng);
  std::vector<ingest::DocBag> mirror;
  for (DocId d{}; d < static_cast<DocId>(corpus.num_docs()); ++d) mirror.push_back(corpus.doc(d));

  {
    MaterializedIndex index(corpus);
    SearchSystem a(cfg, index, corpus);
    Rng churn(64);
    for (int i = 0; i < 6; ++i) {
      const ingest::DocBag bag = make_bag(churn, cc.vocab_size, 5);
      (void)a.ingest_document(bag);
      mirror.push_back(bag);
    }
    a.merge_now();
    // More churn after the sealed merge, left unmerged.
    const ingest::DocBag tail = make_bag(churn, cc.vocab_size, 5);
    (void)a.ingest_document(tail);
    mirror.push_back(tail);
  }

  MaterializedIndex restarted(corpus);
  SearchSystem b(cfg, restarted, corpus);
  EXPECT_EQ(b.ingest_stats().merges, 1u);  // replayed at the seal point
  ASSERT_NE(b.live_index(), nullptr);
  EXPECT_FALSE(b.live_index()->clean());  // the tail stays live
  expect_matches_oracle(restarted, cc, mirror);
}

}  // namespace
}  // namespace ssdse
