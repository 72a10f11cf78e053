#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

Args::Args(int argc, const char* const* argv)
    : cfg_(ssdse::Config::from_args(argc, argv)) {}

void Args::need(const std::string& key) const {
  if (!cfg_.has(key)) throw std::invalid_argument("missing --" + key);
  read_.insert(key);
}
void Args::reject_unused() const {
  for (const std::string& key : cfg_.keys()) {
    if (read_.count(key) == 0) {
      throw std::invalid_argument("unused --" + key);
    }
  }
}
std::string Args::str(const std::string& key) const {
  need(key);
  return cfg_.get_string(key, "");
}
std::uint64_t Args::u64(const std::string& key) const {
  need(key);
  const std::int64_t v = cfg_.get_int(key, -1);
  if (v < 0) throw std::invalid_argument("--" + key + " must be >= 0");
  return static_cast<std::uint64_t>(v);
}
double Args::num(const std::string& key) const {
  need(key);
  return cfg_.get_double(key, 0.0);
}
ssdse::Bytes Args::bytes(const std::string& key) const {
  need(key);
  return cfg_.get_bytes(key, 0);
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

Quiet quiet_blocks(const std::vector<double>& wall_us,
                   std::vector<Block> blocks) {
  Quiet q;
  if (blocks.empty()) return q;
  std::sort(blocks.begin(), blocks.end(), [](const Block& a, const Block& b) {
    return a.ops_per_s > b.ops_per_s;
  });
  if (wall_us.size() / kBlocks >= kMinBlockQueries) {
    blocks.resize(std::min<std::size_t>(blocks.size(), kQuietBlocks));
  }
  std::vector<double> rates;
  std::vector<double> pooled;
  for (const Block& b : blocks) {
    rates.push_back(b.ops_per_s);
    const auto first = wall_us.begin();
    pooled.insert(pooled.end(), first + static_cast<std::ptrdiff_t>(b.begin),
                  first + static_cast<std::ptrdiff_t>(b.end));
  }
  q.qps = median(rates);
  q.samples = pooled.size();
  q.wall_us_p50 = percentile(pooled, 0.50);
  q.wall_us_p99 = percentile(pooled, 0.99);
  return q;
}

std::unique_ptr<ssdse::QueryLogGenerator> query_stream(
    const ssdse::QueryLogConfig& log, std::uint64_t seed) {
  auto gen = std::make_unique<ssdse::QueryLogGenerator>(log);
  const std::uint64_t offset = stream_seed(seed, 1) % (1u << 20);
  for (std::uint64_t i = 0; i < offset; ++i) (void)gen->next();
  return gen;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void size_cache_ssd(ssdse::SystemConfig& cfg, ssdse::Bytes slack) {
  ssdse::NandConfig& nand = cfg.cache_ssd.nand;
  const ssdse::Bytes logical =
      cfg.cache.ssd_result_capacity + cfg.cache.ssd_list_capacity + slack;
  const auto blocks = (logical + nand.block_bytes() - 1) / nand.block_bytes();
  nand.num_blocks = static_cast<std::uint32_t>(
      std::ceil(static_cast<double>(blocks) /
                (1.0 - cfg.cache_ssd.ftl.over_provisioning)) +
      16);
}

bool same_result(const ssdse::ResultEntry& a, const ssdse::ResultEntry& b) {
  if (a.docs.size() != b.docs.size()) return false;
  for (std::size_t i = 0; i < a.docs.size(); ++i) {
    if (a.docs[i].doc != b.docs[i].doc ||
        std::bit_cast<std::uint32_t>(a.docs[i].score) !=
            std::bit_cast<std::uint32_t>(b.docs[i].score)) {
      return false;
    }
  }
  return true;
}

Counters model_counters(const ssdse::telemetry::RegistrySnapshot& snap) {
  Counters out;
  for (const auto& m : snap.metrics()) {
    if (m.kind != ssdse::telemetry::MetricKind::kCounter) continue;
    for (const char* prefix : {"cache.", "ssd.", "hdd.", "ingest."}) {
      if (m.name.rfind(prefix, 0) == 0) {
        out[m.name] = m.counter;
        break;
      }
    }
  }
  return out;
}

Counters delta(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [name, v] : after) out[name] = v - get(before, name);
  return out;
}

std::uint64_t get(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

void fold_counters(std::uint64_t& h, const Counters& c) {
  for (const auto& [name, v] : c) {
    for (const char ch : name) fold(h, static_cast<unsigned char>(ch));
    fold(h, v);
  }
}

std::string first_difference(const Counters& a, const Counters& b) {
  for (const auto& [name, v] : a) {
    if (get(b, name) != v) return name;
  }
  for (const auto& [name, v] : b) {
    if (get(a, name) != v) return name;
  }
  return "";
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kWorkloadNext: return "workload.next";
    case Layer::kCacheLookupResult: return "cache.lookup_result";
    case Layer::kCacheFetchList: return "cache.fetch_list";
    case Layer::kEngineScore: return "engine.score";
    case Layer::kCacheInsertResult: return "cache.insert_result";
    case Layer::kCacheDrain: return "cache.drain";
    case Layer::kIngestApply: return "ingest.apply";
    case Layer::kIngestMerge: return "ingest.merge";
    case Layer::kHybridServe: return "hybrid.serve";
    case Layer::kWorkloadTraffic: return "workload.run_traffic";
  }
  return "unknown";
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "query\tlayer\tstart_ns\tdur_ns\n");
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu\t%s\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.query), layer_name(s.layer),
                 static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.dur_ns));
  }
  return std::fclose(f) == 0;
}

void Report::check(bool ok, const char* what) {
  ++attempted;
  if (!ok) {
    ++failed;
    correct = false;
    if (failed <= 10) std::fprintf(stderr, "check failed: %s\n", what);
  }
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    // Non-finite values would not be valid JSON; report them as 0.
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  return out;
}

std::string spans_path(const std::string& workload, std::uint64_t seed) {
  return ".perfbench_out/" + workload + "-seed" + std::to_string(seed) +
         ".spans.tsv";
}

}  // namespace perfbench
