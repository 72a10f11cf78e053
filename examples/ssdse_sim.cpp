// ssdse_sim — the experiment driver: configure a whole simulated
// deployment (corpus, cache policy and capacities, FTL scheme, codec,
// TTL, intersections, sharding) from a config file and/or --key=value
// flags, run a query stream, and print a full report.
//
//   $ ./build/examples/ssdse_sim --docs=2000000 --policy=cbslru
//         (plus e.g. --mem_budget=10MiB --queries=50000)
//   $ ./build/examples/ssdse_sim myrun.conf --shards=4
//
// Keys (defaults in parentheses):
//   docs (1000000)           collection size
//   mem_budget (16MiB)       memory cache budget (20/80 split, 10x/100x SSD)
//   policy (cblru)           lru | cblru | cbslru
//   queries (20000)          stream length
//   ftl (page)               page | block | hybrid-log | dftl | bplru+<s>
//   codec (raw)              raw | varint | group-varint
//   ttl (0)                  TTL in queries, 0 = static
//   intersections (0)        intersection cache bytes (three-level)
//   shards (1)               >1 = sharded cluster with a broker
//   index_on_ssd (false)     index files on SSD instead of HDD
//   use_cache (true)
//   wear_leveling (false)
//   training (10000)         log-analysis prefix (TEV / CBSLRU preload)
//   seed (7)                 query-stream seed
//   recovery_dir ("")        persist SSD cache metadata here; a re-run
//                            against the same dir warm-restarts
//   snapshot_every (0)       auto-checkpoint period in queries
#include <cstdio>
#include <stdexcept>

#include "src/hybrid/cluster.hpp"
#include "src/hybrid/search_system.hpp"
#include "src/util/config.hpp"
#include "src/util/table.hpp"

using namespace ssdse;

namespace {

CachePolicy parse_policy(const std::string& name) {
  if (name == "lru") return CachePolicy::kLru;
  if (name == "cblru") return CachePolicy::kCblru;
  if (name == "cbslru") return CachePolicy::kCbslru;
  throw std::runtime_error("unknown policy: " + name);
}

SystemConfig system_config(const Config& cfg) {
  SystemConfig sys;
  sys.set_num_docs(static_cast<std::uint64_t>(cfg.get_int("docs", 1'000'000)));
  sys.set_memory_budget(cfg.get_bytes("mem_budget", 16 * MiB));
  sys.cache.policy = parse_policy(cfg.get_string("policy", "cblru"));
  sys.cache.ttl_queries =
      static_cast<std::uint64_t>(cfg.get_int("ttl", 0));
  sys.cache.intersection_capacity = cfg.get_bytes("intersections", 0);
  sys.cache_ssd.ftl_scheme = cfg.get_string("ftl", "page");
  sys.cache_ssd.ftl.wear_leveling = cfg.get_bool("wear_leveling", false);
  sys.corpus.codec = cfg.get_string("codec", "raw");
  sys.index_on_ssd = cfg.get_bool("index_on_ssd", false);
  sys.use_cache = cfg.get_bool("use_cache", true);
  sys.training_queries =
      static_cast<std::uint64_t>(cfg.get_int("training", 10'000));
  sys.log.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  sys.recovery.dir = cfg.get_string("recovery_dir", "");
  sys.recovery.enabled = !sys.recovery.dir.empty();
  sys.recovery.snapshot_every =
      static_cast<std::uint64_t>(cfg.get_int("snapshot_every", 0));
  return sys;
}

void report_system(SearchSystem& system) {
  const auto& m = system.metrics();
  const auto& cs = system.cache_manager().stats();
  if (const auto* rs = system.recovery_stats()) {
    std::printf("recovery: %s start (%llu result + %llu list entries "
                "recovered, %.2f ms",
                system.warm_started() ? "warm" : "cold",
                static_cast<unsigned long long>(rs->result_entries_recovered),
                static_cast<unsigned long long>(rs->list_entries_recovered),
                rs->recovery_wall_ms);
    if (rs->images_rejected > 0) {
      std::printf("; snapshot rejected: it does not fit the cache");
    }
    if (rs->journal_torn_bytes > 0) {
      std::printf("; journal torn tail of %llu bytes truncated",
                  static_cast<unsigned long long>(rs->journal_torn_bytes));
    }
    std::printf(")\n\n");
  }
  Table t({"metric", "value"});
  t.add_row({"queries", Table::integer(static_cast<long long>(m.queries()))});
  t.add_row({"mean response (ms)",
             Table::num(m.mean_response() / kMillisecond, 3)});
  t.add_row({"p99 response (ms)",
             Table::num(m.histogram().quantile(0.99) / kMillisecond.value(), 3)});
  t.add_row({"throughput (q/s)", Table::num(system.throughput_qps(), 1)});
  t.add_row({"hit ratio", Table::percent(cs.hit_ratio())});
  t.add_row({"  result hits mem/ssd",
             Table::integer(static_cast<long long>(cs.result_hits_mem)) +
                 " / " +
                 Table::integer(static_cast<long long>(cs.result_hits_ssd))});
  t.add_row({"  list hits mem/ssd",
             Table::integer(static_cast<long long>(cs.list_hits_mem)) +
                 " / " +
                 Table::integer(static_cast<long long>(cs.list_hits_ssd))});
  t.add_row({"  index-store reads",
             Table::integer(static_cast<long long>(cs.hdd_list_reads))});
  t.add_row({"  expired (TTL)",
             Table::integer(static_cast<long long>(cs.results_expired +
                                                   cs.lists_expired))});
  if (const Ssd* ssd = system.cache_ssd()) {
    t.add_row({"SSD block erasures",
               Table::integer(static_cast<long long>(ssd->block_erases()))});
    t.add_row({"SSD mean access (us)",
               Table::num(ssd->mean_flash_access().value(), 2)});
    t.add_row({"SSD write amplification",
               Table::num(ssd->ftl().stats().write_amplification(
                   ssd->nand().stats()), 3)});
    t.add_row({"SSD wear (mean, % of 100k cycles)",
               Table::num(ssd->wear_fraction() * 100, 4)});
  }
  t.print();

  std::printf("\nsituation census (Table I):\n");
  Table s({"situation", "probability", "mean (ms)"});
  for (std::size_t i = 0; i < kNumSituations; ++i) {
    const auto sit = static_cast<Situation>(i);
    s.add_row({to_string(sit), Table::percent(m.situation_probability(sit)),
               Table::num(m.situation_mean_time(sit) / kMillisecond, 3)});
  }
  s.print();
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  try {
    std::vector<std::string> files;
    const Config cli = Config::from_args(argc, argv, &files);
    for (const std::string& f : files) {
      Config file_cfg = Config::from_file(f);
      cfg.merge(file_cfg);
    }
    cfg.merge(cli);  // CLI wins over files
  } catch (const std::exception& e) {
    std::fprintf(stderr, "config error: %s\n", e.what());
    return 1;
  }

  const auto queries =
      static_cast<std::uint64_t>(cfg.get_int("queries", 20'000));
  const auto shards = static_cast<std::uint32_t>(cfg.get_int("shards", 1));

  try {
    if (shards > 1) {
      ClusterConfig cluster_cfg;
      cluster_cfg.num_shards = shards;
      cluster_cfg.total_docs =
          static_cast<std::uint64_t>(cfg.get_int("docs", 1'000'000));
      cluster_cfg.shard_template = system_config(cfg);
      SearchCluster cluster(cluster_cfg);
      std::printf("running %llu queries over %u shards...\n",
                  static_cast<unsigned long long>(queries), shards);
      cluster.run(queries);
      std::printf("\ncluster: mean response %.3f ms, throughput %.1f q/s\n\n",
                  cluster.metrics().mean_response() / kMillisecond,
                  cluster.throughput_qps());
      std::printf("--- shard 0 detail ---\n");
      cluster.shard(0).drain();
      report_system(cluster.shard(0));
    } else {
      SearchSystem system(system_config(cfg));
      std::printf("running %llu queries...\n",
                  static_cast<unsigned long long>(queries));
      system.run(queries);
      system.drain();
      system.checkpoint();  // clean-shutdown snapshot (no-op if disabled)
      report_system(system);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simulation error: %s\n", e.what());
    return 1;
  }
  return 0;
}
