#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/mem_list_cache.hpp"
#include "src/cache/mem_result_cache.hpp"
#include "src/index/inverted_index.hpp"
#include "src/util/flat_lru_map.hpp"
#include "src/util/rng.hpp"

namespace ssdse {
namespace {

ResultEntry make_result(QueryId qid) {
  ResultEntry e;
  e.query = qid;
  e.docs = {{DocId{static_cast<std::uint32_t>(qid.raw())}, 1.0f}};
  return e;
}

// --- MemResultCache -----------------------------------------------------

TEST(MemResultCacheTest, HitBumpsFrequency) {
  MemResultCache cache(100 * KiB);  // 5 entries
  cache.insert(make_result(QueryId{1}));
  EXPECT_EQ(cache.lookup(QueryId{1})->freq, 2u);
  EXPECT_EQ(cache.lookup(QueryId{1})->freq, 3u);
  EXPECT_EQ(cache.lookup(QueryId{2}), nullptr);
}

TEST(MemResultCacheTest, LruEvictionOrder) {
  MemResultCache cache(40 * KiB);  // 2 entries
  cache.insert(make_result(QueryId{1}));
  cache.insert(make_result(QueryId{2}));
  cache.lookup(QueryId{1});  // 1 becomes MRU
  const auto ins = cache.insert(make_result(QueryId{3}));
  EXPECT_EQ(ins.handle->entry.query.raw(), 3u);
  ASSERT_EQ(ins.evicted.size(), 1u);
  EXPECT_EQ(ins.evicted[0].entry.query, QueryId{2});
  EXPECT_TRUE(cache.contains(QueryId{1}));
  EXPECT_TRUE(cache.contains(QueryId{3}));
}

TEST(MemResultCacheTest, ReinsertRefreshesWithoutEviction) {
  MemResultCache cache(40 * KiB);
  cache.insert(make_result(QueryId{1}));
  cache.insert(make_result(QueryId{2}));
  const auto ins = cache.insert(make_result(QueryId{1}));
  EXPECT_NE(ins.handle, nullptr);
  EXPECT_TRUE(ins.evicted.empty());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(MemResultCacheTest, CapacityAccounting) {
  MemResultCache cache(100 * KiB);
  EXPECT_EQ(cache.max_entries(), 5u);
  for (QueryId q{}; q < QueryId{10}; ++q) cache.insert(make_result(q));
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.used_bytes(), 5 * kResultEntryBytes);
}

TEST(MemResultCacheTest, EvictionCarriesFrequency) {
  MemResultCache cache(20 * KiB);  // 1 entry
  cache.insert(make_result(QueryId{1}));
  cache.lookup(QueryId{1});
  cache.lookup(QueryId{1});
  const auto ins = cache.insert(make_result(QueryId{2}));
  ASSERT_EQ(ins.evicted.size(), 1u);
  EXPECT_EQ(ins.evicted[0].freq, 3u);
}

TEST(MemResultCacheTest, InsertHandleIsStableAcrossRecencyChurn) {
  MemResultCache cache(100 * KiB);  // 5 entries
  const auto ins = cache.insert(make_result(QueryId{1}));
  ASSERT_NE(ins.handle, nullptr);
  for (QueryId q = QueryId{2}; q <= QueryId{5}; ++q) cache.insert(make_result(q));
  cache.lookup(QueryId{3});  // recency churn must not move the node
  EXPECT_EQ(ins.handle->entry.query, QueryId{1});
  EXPECT_EQ(&cache.lookup(QueryId{1})->entry, &ins.handle->entry);
}

TEST(MemResultCacheTest, DegenerateCapacityHoldsZeroEntries) {
  MemResultCache cache(kResultEntryBytes / 2);  // below one entry
  EXPECT_EQ(cache.max_entries(), 0u);
  const auto ins = cache.insert(make_result(QueryId{1}));
  // The entry is bounced straight to the eviction path, never cached.
  EXPECT_EQ(ins.handle, nullptr);
  ASSERT_EQ(ins.evicted.size(), 1u);
  EXPECT_EQ(ins.evicted[0].entry.query, QueryId{1});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(QueryId{1}), nullptr);
}

// --- MemListCache ------------------------------------------------------------

CachedList list_info(Bytes cached, Bytes full, std::uint64_t freq = 1,
                     std::uint32_t sc = 1) {
  CachedList c;
  c.cached_bytes = cached;
  c.full_bytes = full;
  c.utilization = static_cast<double>(cached) / static_cast<double>(full);
  c.freq = freq;
  c.sc_blocks = sc;
  c.ev = static_cast<double>(freq) / sc;
  return c;
}

TEST(MemListCacheTest, PrefixRuleGovernsHits) {
  MemListCache cache(1 * MiB, CachePolicy::kCblru, 4);
  cache.insert(TermId{7}, list_info(100 * KiB, 400 * KiB));
  EXPECT_NE(cache.lookup(TermId{7}, 50 * KiB), nullptr);
  EXPECT_NE(cache.lookup(TermId{7}, 100 * KiB), nullptr);
  // Needing more than the cached prefix is a miss.
  EXPECT_EQ(cache.lookup(TermId{7}, 200 * KiB), nullptr);
  EXPECT_EQ(cache.lookup(TermId{8}, 1), nullptr);
}

TEST(MemListCacheTest, HitBumpsFreqAndEv) {
  MemListCache cache(1 * MiB, CachePolicy::kCblru, 4);
  cache.insert(TermId{1}, list_info(10 * KiB, 10 * KiB, 1, 2));
  const CachedList* e = cache.lookup(TermId{1}, 1 * KiB);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->freq, 2u);
  EXPECT_DOUBLE_EQ(e->ev, 1.0);  // 2 / 2
}

TEST(MemListCacheTest, LruPolicyEvictsLru) {
  MemListCache cache(100 * KiB, CachePolicy::kLru, 4);
  cache.insert(TermId{1}, list_info(40 * KiB, 40 * KiB));
  cache.insert(TermId{2}, list_info(40 * KiB, 40 * KiB));
  cache.lookup(TermId{1}, 1);
  const auto evicted = cache.insert(TermId{3}, list_info(40 * KiB, 40 * KiB));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].term.raw(), 2u);
}

TEST(MemListCacheTest, CblruEvictsMinEvInWindow) {
  // Window covers the whole cache; the min-EV entry must go first even
  // if it is not the LRU one (Fig. 12).
  MemListCache cache(120 * KiB, CachePolicy::kCblru, 8);
  cache.insert(TermId{1}, list_info(40 * KiB, 40 * KiB, /*freq=*/50, /*sc=*/1));
  cache.insert(TermId{2}, list_info(40 * KiB, 40 * KiB, /*freq=*/2, /*sc=*/1));
  cache.insert(TermId{3}, list_info(40 * KiB, 40 * KiB, /*freq=*/30, /*sc=*/1));
  // LRU order (old->new): 1, 2, 3. Min EV is term 2.
  const auto evicted = cache.insert(TermId{4}, list_info(40 * KiB, 40 * KiB, 10, 1));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].term, TermId{2});
  EXPECT_TRUE(cache.contains(TermId{1}));
}

TEST(MemListCacheTest, CblruWindowLimitsScan) {
  // Window of 1: only the LRU entry is examined, so the global min-EV
  // entry deeper in the list survives.
  MemListCache cache(100 * KiB, CachePolicy::kCblru, 1);
  cache.insert(TermId{1}, list_info(40 * KiB, 40 * KiB, /*freq=*/1, /*sc=*/1));   // min EV
  cache.insert(TermId{2}, list_info(40 * KiB, 40 * KiB, /*freq=*/90, /*sc=*/1));
  cache.lookup(TermId{1}, 1);  // promote term 1 to MRU; LRU is now 2
  const auto evicted = cache.insert(TermId{3}, list_info(40 * KiB, 40 * KiB, 5, 1));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].term, TermId{2});  // LRU evicted despite higher EV
}

TEST(MemListCacheTest, OversizedEntryPassesThrough) {
  MemListCache cache(50 * KiB, CachePolicy::kCblru, 4);
  const auto evicted = cache.insert(TermId{1}, list_info(80 * KiB, 80 * KiB));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].term, TermId{1});
  EXPECT_FALSE(cache.contains(TermId{1}));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(MemListCacheTest, ReinsertUpdatesBytesAccounting) {
  MemListCache cache(1 * MiB, CachePolicy::kCblru, 4);
  cache.insert(TermId{1}, list_info(100 * KiB, 400 * KiB));
  cache.insert(TermId{1}, list_info(200 * KiB, 400 * KiB));
  EXPECT_EQ(cache.used_bytes(), 200 * KiB);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MemListCacheTest, ReinsertKeepsLargerFreq) {
  MemListCache cache(1 * MiB, CachePolicy::kCblru, 4);
  cache.insert(TermId{1}, list_info(10 * KiB, 10 * KiB, /*freq=*/9));
  cache.insert(TermId{1}, list_info(10 * KiB, 10 * KiB, /*freq=*/1));
  EXPECT_EQ(cache.lookup(TermId{1}, 1)->freq, 10u);  // max(9,1) + the hit
}

TEST(MemListCacheTest, MultipleEvictionsUntilFit) {
  MemListCache cache(100 * KiB, CachePolicy::kLru, 4);
  cache.insert(TermId{1}, list_info(40 * KiB, 40 * KiB));
  cache.insert(TermId{2}, list_info(40 * KiB, 40 * KiB));
  const auto evicted = cache.insert(TermId{3}, list_info(90 * KiB, 90 * KiB));
  EXPECT_EQ(evicted.size(), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.contains(TermId{3}));
}

// --- FlatLruMap against a model -----------------------------------------
// Every LRU tier's eviction order rests on FlatLruMap's recency
// semantics. Drive it and an obviously correct model through the same
// randomized op stream and demand identical observable behaviour at
// every step, with full order walks from both ends at checkpoints.
// Vector values make table growth and backward-shift relocation move
// non-trivial payloads; the key range forces several table grows.

/// Reference LRU: an MRU-first vector searched linearly.
template <typename K, typename V>
struct ModelLru {
  std::vector<std::pair<K, V>> items;  // front = MRU

  std::size_t index_of(const K& k) const {
    return static_cast<std::size_t>(
        std::find_if(items.begin(), items.end(),
                     [&](const auto& e) { return e.first == k; }) -
        items.begin());
  }
  V* peek(const K& k) {
    const std::size_t i = index_of(k);
    return i == items.size() ? nullptr : &items[i].second;
  }
  V* touch(const K& k) {
    const std::size_t i = index_of(k);
    if (i == items.size()) return nullptr;
    std::rotate(items.begin(), items.begin() + static_cast<std::ptrdiff_t>(i),
                items.begin() + static_cast<std::ptrdiff_t>(i + 1));
    return &items.front().second;
  }
  void insert(const K& k, V v) {
    if (V* existing = touch(k)) {
      *existing = std::move(v);
    } else {
      items.emplace(items.begin(), k, std::move(v));
    }
  }
  V erase_at(std::size_t i) {
    V v = std::move(items[i].second);
    items.erase(items.begin() + static_cast<std::ptrdiff_t>(i));
    return v;
  }
};

TEST(FlatLruMapTest, MatchesModelUnderRandomizedChurn) {
  using Value = std::vector<std::uint64_t>;
  using Map = FlatLruMap<TermId, Value>;
  Map flat;
  ModelLru<TermId, Value> model;
  Rng rng(4242);
  std::size_t peak = 0;
  for (int step = 0; step < 30'000; ++step) {
    const auto key = static_cast<TermId>(rng.next_below(1'500));
    switch (rng.next_below(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // insert or overwrite
        const Value v(1 + rng.next_below(4), rng.next_u64());
        model.insert(key, v);
        flat.insert(key, v);
        break;
      }
      case 4: {
        const Value* mv = model.touch(key);
        const Value* fv = flat.touch(key);
        ASSERT_EQ(mv == nullptr, fv == nullptr) << "step " << step;
        if (mv) {
          ASSERT_EQ(*mv, *fv) << "step " << step;
        }
        break;
      }
      case 5: {
        const Value* mv = model.peek(key);
        const Value* fv = flat.peek(key);
        ASSERT_EQ(mv == nullptr, fv == nullptr) << "step " << step;
        if (mv) {
          ASSERT_EQ(*mv, *fv) << "step " << step;
        }
        break;
      }
      case 6: {
        const std::size_t i = model.index_of(key);
        const auto fe = flat.erase(key);
        ASSERT_EQ(i != model.items.size(), fe.has_value()) << "step " << step;
        if (fe) {
          ASSERT_EQ(model.erase_at(i), *fe) << "step " << step;
        }
        break;
      }
      case 7: {
        const auto fp = flat.pop_lru();
        ASSERT_EQ(model.items.empty(), !fp.has_value()) << "step " << step;
        if (fp) {
          ASSERT_EQ(model.items.back().first, fp->first) << "step " << step;
          ASSERT_EQ(model.erase_at(model.items.size() - 1), fp->second)
              << "step " << step;
        }
        break;
      }
      case 8: {  // erase_handle a few entries in from the LRU end
        if (model.items.empty()) break;
        const std::size_t depth =
            rng.next_below(std::min<std::size_t>(model.items.size(), 8));
        auto h = flat.lru_handle();
        for (std::size_t d = 0; d < depth; ++d) h = flat.more_recent(h);
        const std::size_t i = model.items.size() - 1 - depth;
        ASSERT_EQ(flat.key_at(h), model.items[i].first) << "step " << step;
        ASSERT_EQ(flat.erase_handle(h), model.erase_at(i)) << "step " << step;
        break;
      }
      case 9: {  // rare clear; the table keeps its grown capacity
        if (rng.next_below(500) == 0) {
          flat.clear();
          model.items.clear();
        }
        break;
      }
    }
    peak = std::max(peak, flat.size());
    ASSERT_EQ(model.items.size(), flat.size()) << "step " << step;
    ASSERT_EQ(model.peek(key) != nullptr, flat.contains(key))
        << "step " << step;
    if (step % 2'000 == 1'999) {
      // Checkpoint: full orders from both ends must match exactly.
      auto h = flat.mru_handle();
      for (const auto& [k, v] : model.items) {
        ASSERT_NE(h, Map::npos) << "MRU walk at step " << step;
        ASSERT_EQ(flat.key_at(h), k) << "MRU walk at step " << step;
        ASSERT_EQ(flat.value_at(h), v) << "MRU walk at step " << step;
        h = flat.less_recent(h);
      }
      ASSERT_EQ(h, Map::npos);
      h = flat.lru_handle();
      for (auto it = model.items.rbegin(); it != model.items.rend(); ++it) {
        ASSERT_NE(h, Map::npos) << "LRU walk at step " << step;
        ASSERT_EQ(flat.key_at(h), it->first) << "LRU walk at step " << step;
        h = flat.more_recent(h);
      }
      ASSERT_EQ(h, Map::npos);
    }
  }
  // 16 slots to start, grown at 70 % load: a peak above 180 entries
  // means at least five grows (32, 64, 128, 256 and 512 slots).
  EXPECT_GT(peak, 180u);
}

// --- encoded-byte cached-size accounting --------------------------------
// The satellite regression: TermMeta::list_bytes (what MemListCache
// charges) must reflect the *encoded* posting-block size, so a
// compressed index fits several-fold more lists into the same capacity —
// observable as a change in capacity-based eviction counts.

TEST(MemListCacheTest, EncodedSizeAccountingChangesEvictionCounts) {
  CorpusConfig cfg;
  cfg.num_docs = 4'000;
  cfg.vocab_size = 200;
  cfg.terms_per_doc = 30;
  cfg.max_df_fraction = 0.4;
  cfg.seed = 55;
  cfg.codec = "raw";
  Rng rng_raw(cfg.seed);
  MaterializedCorpus raw_corpus(cfg, rng_raw);
  MaterializedIndex raw_index(raw_corpus);

  CorpusConfig packed_cfg = cfg;
  packed_cfg.codec = "block-packed";
  Rng rng_packed(cfg.seed);
  MaterializedCorpus packed_corpus(packed_cfg, rng_packed);
  MaterializedIndex packed_index(packed_corpus);

  // Same postings, different accounting: the packed index's charged
  // bytes are the encoded slice sizes, several-fold below raw.
  Bytes raw_total = 0;
  Bytes packed_total = 0;
  for (TermId t{}; t < TermId{cfg.vocab_size}; ++t) {
    ASSERT_EQ(raw_index.doc_sorted(t).size(), packed_index.doc_sorted(t).size());
    raw_total += raw_index.term_meta_fast(t).list_bytes;
    packed_total += packed_index.term_meta_fast(t).list_bytes;
    EXPECT_EQ(packed_index.term_meta_fast(t).list_bytes,
              packed_index.block_store().term_bytes(t));
  }
  EXPECT_LT(packed_total * 5 / 2, raw_total);

  // Identical insertion sequence at a fixed capacity: encoded-byte
  // charging must strictly reduce capacity-based evictions.
  const Bytes capacity = raw_total / 4;
  const auto evictions = [&](const MaterializedIndex& index) {
    MemListCache cache(capacity, CachePolicy::kLru, 4);
    std::size_t evicted = 0;
    for (TermId t{}; t < TermId{cfg.vocab_size}; ++t) {
      const Bytes bytes = index.term_meta_fast(t).list_bytes;
      evicted += cache.insert(t, list_info(bytes, bytes)).size();
    }
    return evicted;
  };
  const std::size_t raw_evictions = evictions(raw_index);
  const std::size_t packed_evictions = evictions(packed_index);
  EXPECT_GT(raw_evictions, 0u);
  EXPECT_LT(packed_evictions, raw_evictions);
}

}  // namespace
}  // namespace ssdse
