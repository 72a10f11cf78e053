// Micro-benchmarks (google-benchmark): cache data-structure and workload
// generation hot paths — FlatLruMap churn, the memory caches, Zipf
// sampling and query generation, and a full end-to-end query through the
// system.
#include <benchmark/benchmark.h>

#include "src/cache/mem_list_cache.hpp"
#include "src/cache/mem_result_cache.hpp"
#include "src/hybrid/search_system.hpp"
#include "src/util/flat_lru_map.hpp"
#include "src/util/zipf.hpp"
#include "src/workload/query_log.hpp"

namespace ssdse {
namespace {

void BM_FlatLruMapChurn(benchmark::State& state) {
  FlatLruMap<std::uint64_t, std::uint64_t> map;
  const std::uint64_t capacity = state.range(0);
  Rng rng(1);
  std::uint64_t key = 0;
  for (auto _ : state) {
    if (rng.chance(0.7)) {
      benchmark::DoNotOptimize(map.touch(rng.next_below(capacity * 2)));
    } else {
      const std::uint64_t k = key % (capacity * 2);
      ++key;
      map.insert(k, key);
      if (map.size() > capacity) map.pop_lru();
    }
  }
}
BENCHMARK(BM_FlatLruMapChurn)->Arg(1024)->Arg(65536);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(state.range(0), 0.9);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(100'000)->Arg(1'000'000)->Arg(100'000'000);

void BM_QueryGeneration(benchmark::State& state) {
  QueryLogGenerator gen(QueryLogConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
}
BENCHMARK(BM_QueryGeneration);

void BM_MemResultCacheInsert(benchmark::State& state) {
  MemResultCache cache(10 * MiB);
  QueryId q{};
  for (auto _ : state) {
    ResultEntry e;
    e.query = q++;
    benchmark::DoNotOptimize(cache.insert(std::move(e)));
  }
}
BENCHMARK(BM_MemResultCacheInsert);

void BM_MemListCacheMixed(benchmark::State& state) {
  MemListCache cache(64 * MiB, CachePolicy::kCblru, 8);
  Rng rng(3);
  for (auto _ : state) {
    const auto term = static_cast<TermId>(rng.next_below(100'000));
    if (cache.lookup(term, 4 * KiB) == nullptr) {
      CachedList info;
      info.cached_bytes = 4 * KiB + rng.next_below(512 * KiB);
      info.full_bytes = info.cached_bytes * 2;
      info.utilization = 0.5;
      info.sc_blocks = static_cast<std::uint32_t>(
          info.cached_bytes / (128 * KiB) + 1);
      info.ev = 1.0;
      benchmark::DoNotOptimize(cache.insert(term, info));
    }
  }
}
BENCHMARK(BM_MemListCacheMixed);

void BM_EndToEndQuery(benchmark::State& state) {
  SystemConfig cfg;
  cfg.set_num_docs(1'000'000);
  cfg.set_memory_budget(16 * MiB);
  cfg.cache.policy = static_cast<CachePolicy>(state.range(0));
  cfg.training_queries = 2'000;
  SearchSystem system(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.execute(system.generator().next()));
  }
  state.counters["hit_ratio"] =
      system.cache_manager().stats().hit_ratio();
}
BENCHMARK(BM_EndToEndQuery)
    ->Arg(static_cast<int>(CachePolicy::kLru))
    ->Arg(static_cast<int>(CachePolicy::kCblru))
    ->Arg(static_cast<int>(CachePolicy::kCbslru))
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ssdse
