#include "src/workload/arrival.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <queue>
#include <stdexcept>

namespace ssdse {

namespace {

constexpr double kPi = 3.14159265358979323846;

// FNV-1a fold helpers for the determinism fingerprint.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

void fnv_mix_double(std::uint64_t& h, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  fnv_mix(h, bits);
}

}  // namespace

ArrivalProcess::ArrivalProcess(const ArrivalConfig& cfg,
                               QueryLogGenerator& gen)
    : cfg_(cfg), gen_(gen), rng_(cfg.seed) {
  if (cfg_.base_qps <= 0.0) {
    throw std::invalid_argument("ArrivalProcess: base_qps must be positive");
  }
  if (cfg_.diurnal_amplitude < 0.0 || cfg_.diurnal_amplitude >= 1.0) {
    throw std::invalid_argument(
        "ArrivalProcess: diurnal_amplitude must be in [0,1)");
  }
  // Thinning envelope: the diurnal peak times every crowd multiplier
  // (overlapping crowds compound, so the product is the safe bound).
  double crowd_peak = 1.0;
  for (const FlashCrowd& c : cfg_.flash_crowds) {
    if (c.multiplier <= 0.0 || c.duration < Micros{}) {
      throw std::invalid_argument("ArrivalProcess: malformed flash crowd");
    }
    crowd_peak *= std::max(1.0, c.multiplier);
  }
  peak_qps_ = cfg_.base_qps * (1.0 + cfg_.diurnal_amplitude) * crowd_peak;
}

double ArrivalProcess::rate_at(Micros t) const {
  double rate = cfg_.base_qps;
  if (cfg_.diurnal_amplitude > 0.0) {
    rate *= 1.0 + cfg_.diurnal_amplitude *
                      std::sin(2.0 * kPi * t / cfg_.diurnal_period);
  }
  for (const FlashCrowd& c : cfg_.flash_crowds) {
    if (t >= c.start && t < c.start + c.duration) rate *= c.multiplier;
  }
  return std::max(rate, 0.0);
}

Query ArrivalProcess::make_outlier_query() {
  // Queries of death: a bag of rare terms from the upper half of the
  // vocabulary under a fresh never-repeating id — every list a
  // near-certain cache miss, most of them HDD seeks, and the result
  // cache can never help. This is the heavy service-time tail.
  Query q;
  q.id = QueryId{(1ull << 62) + outliers_};
  const std::uint32_t vocab = gen_.config().vocab_size;
  const std::uint32_t lo = vocab / 2;
  q.terms.reserve(cfg_.outlier_terms);
  for (std::uint32_t i = 0; i < cfg_.outlier_terms; ++i) {
    const auto term =
        TermId{static_cast<std::uint32_t>(lo + rng_.next_below(vocab - lo))};
    if (std::find(q.terms.begin(), q.terms.end(), term) == q.terms.end()) {
      q.terms.push_back(term);
    }
  }
  return q;
}

ArrivalProcess::Arrival ArrivalProcess::next() {
  // Lewis-Shedler thinning: homogeneous candidates at the peak rate,
  // each kept with probability rate(t)/peak.
  const double peak_per_us = peak_qps_ / kSecond.value();
  for (;;) {
    now_ += micros(-std::log1p(-rng_.next_double()) / peak_per_us);
    if (rng_.next_double() * peak_qps_ < rate_at(now_)) break;
  }
  Arrival a;
  a.time = now_;
  a.outlier =
      cfg_.outlier_probability > 0.0 && rng_.chance(cfg_.outlier_probability);
  if (a.outlier) {
    a.query = make_outlier_query();
    ++outliers_;
  } else {
    a.query = gen_.next();
  }
  ++generated_;
  return a;
}

const char* attr_stage_name(std::size_t stage) {
  if (stage < telemetry::kNumTraceStages) {
    return telemetry::to_string(static_cast<telemetry::TraceStage>(stage));
  }
  if (stage == kAttrQueueWait) return "queue_wait";
  if (stage == kAttrOther) return "other";
  return "unknown";
}

TrafficResult::TrafficResult(Micros window_width)
    : response_windows(window_width),
      wait_windows(window_width),
      offered_windows(window_width),
      shed_windows(window_width) {}

bool TrafficResult::breached() const {
  return std::any_of(slo.begin(), slo.end(), [](const SloReport& r) {
    return r.state == telemetry::SloState::kBreach;
  });
}

std::uint64_t TrafficResult::series_fingerprint() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix_double(h, response_windows.width().value());
  fnv_mix(h, offered);
  fnv_mix(h, served);
  fnv_mix(h, shed);
  fnv_mix(h, outliers);
  fnv_mix(h, partial);
  for (const telemetry::WindowCell& c : response_windows.cells()) {
    fnv_mix(h, c.index);
    fnv_mix(h, c.hist.count());
    fnv_mix_double(h, c.hist.quantile(0.50));
    fnv_mix_double(h, c.hist.quantile(0.99));
    fnv_mix_double(h, c.hist.quantile(0.999));
  }
  const std::uint64_t last = offered_windows.last_index();
  for (std::uint64_t w = 0; w <= last; ++w) {
    fnv_mix(h, offered_windows.at(w));
    fnv_mix(h, shed_windows.at(w));
  }
  for (const SloReport& r : slo) {
    fnv_mix(h, static_cast<std::uint64_t>(r.state));
    fnv_mix(h, r.good);
    fnv_mix(h, r.bad);
    fnv_mix(h, r.breach_windows);
    fnv_mix(h, static_cast<std::uint64_t>(r.first_breach_window + 1));
    fnv_mix_double(h, r.burn_slow);
    fnv_mix_double(h, r.max_burn_fast);
  }
  for (const char ch : guilty_stage) {
    fnv_mix(h, static_cast<std::uint64_t>(static_cast<unsigned char>(ch)));
  }
  return h;
}

TrafficResult run_traffic(TrafficTarget& target, QueryLogGenerator& gen,
                          const TrafficConfig& cfg) {
  if (cfg.servers == 0) {
    throw std::invalid_argument("run_traffic: servers must be positive");
  }
  TrafficResult r(cfg.window);
  r.servers = cfg.servers;
  r.queue_capacity = cfg.queue_capacity;

  ArrivalProcess process(cfg.arrival, gen);

  // Per-spec per-window good/bad event counters (served queries keyed
  // by completion window, shed queries keyed by arrival window: a shed
  // query is a bad event the moment it is turned away).
  std::vector<telemetry::WindowedCounter> good_events;
  std::vector<telemetry::WindowedCounter> bad_events;
  good_events.reserve(cfg.slos.size());
  bad_events.reserve(cfg.slos.size());
  for (std::size_t i = 0; i < cfg.slos.size(); ++i) {
    good_events.emplace_back(cfg.window);
    bad_events.emplace_back(cfg.window);
  }

  // Worst-N reservoir as a min-heap keyed by response, so the smallest
  // retained tail sample is evicted first.
  const auto worse = [](const TailSample& a, const TailSample& b) {
    if (a.response != b.response) return a.response > b.response;
    return a.arrival < b.arrival;
  };

  // k identical servers: a min-heap of times each server frees up.
  std::priority_queue<Micros, std::vector<Micros>, std::greater<>> free_at;
  for (std::uint32_t s = 0; s < cfg.servers; ++s) free_at.push(Micros{});
  std::deque<ArrivalProcess::Arrival> waiting;

  const auto shed = [&](const ArrivalProcess::Arrival& a) {
    ++r.shed;
    r.horizon = std::max(r.horizon, a.time);
    r.shed_windows.add(a.time, 1);
    for (std::size_t i = 0; i < cfg.slos.size(); ++i) {
      bad_events[i].add(a.time, 1);
    }
  };

  const auto dispatch = [&](const ArrivalProcess::Arrival& a,
                            Micros server_free) {
    const Micros start = std::max(a.time, server_free);
    const Micros service = target.serve(a.query);
    const Micros completion = start + service;
    const Micros wait = start - a.time;
    const Micros response = completion - a.time;
    free_at.push(completion);

    ++r.served;
    r.horizon = std::max(r.horizon, completion);
    r.response_hist.add(response);
    r.wait_hist.add(wait);
    r.service_hist.add(service);
    r.response_windows.add(completion, response);
    r.wait_windows.add(completion, wait);
    const double coverage = target.last_coverage();
    if (coverage < 1.0) ++r.partial;
    for (std::size_t i = 0; i < cfg.slos.size(); ++i) {
      (cfg.slos[i].good_event(response, coverage) ? good_events
                                                  : bad_events)[i]
          .add(completion, 1);
    }

    // Tail attribution: the traced stages, the queue wait, and the
    // untraced rest of the service time ("other").
    TailSample sample;
    sample.query = a.query.id;
    sample.outlier = a.outlier;
    sample.arrival = a.time;
    sample.wait = wait;
    sample.service = service;
    sample.response = response;
    Micros traced = micros(0);
    if (const telemetry::QueryTrace* t = target.last_trace()) {
      for (std::size_t s = 0; s < telemetry::kNumTraceStages; ++s) {
        if (!(t->touched & (1u << s))) continue;
        sample.stage_us[s] = t->stage_us[s];
        traced += t->stage_us[s];
        r.stage_hists[s].add(t->stage_us[s]);
        ++r.stage_counts[s];
      }
    }
    sample.untraced = std::max(Micros{}, service - traced);
    r.stage_hists[kAttrQueueWait].add(wait);
    ++r.stage_counts[kAttrQueueWait];
    r.stage_hists[kAttrOther].add(sample.untraced);
    ++r.stage_counts[kAttrOther];

    if (cfg.worst_n > 0) {
      if (r.worst.size() < cfg.worst_n) {
        r.worst.push_back(sample);
        std::push_heap(r.worst.begin(), r.worst.end(), worse);
      } else if (worse(sample, r.worst.front())) {
        std::pop_heap(r.worst.begin(), r.worst.end(), worse);
        r.worst.back() = sample;
        std::push_heap(r.worst.begin(), r.worst.end(), worse);
      }
    }
  };

  for (std::uint64_t n = 0; n < cfg.offered; ++n) {
    ArrivalProcess::Arrival a = process.next();
    ++r.offered;
    r.offered_windows.add(a.time, 1);
    // Servers that freed up before this arrival drain the queue first
    // (FIFO admission order).
    while (!waiting.empty() && free_at.top() <= a.time) {
      const Micros f = free_at.top();
      free_at.pop();
      dispatch(waiting.front(), f);
      waiting.pop_front();
    }
    if (waiting.empty() && free_at.top() <= a.time) {
      const Micros f = free_at.top();
      free_at.pop();
      dispatch(a, f);
    } else if (cfg.queue_capacity != 0 &&
               waiting.size() >= cfg.queue_capacity) {
      shed(a);
    } else {
      waiting.push_back(std::move(a));
    }
  }
  // Drain: admitted queries are always served (shed happens only at
  // admission), so served + shed == offered.
  while (!waiting.empty()) {
    const Micros f = free_at.top();
    free_at.pop();
    dispatch(waiting.front(), f);
    waiting.pop_front();
  }
  r.outliers = process.outliers();

  // SLO post-pass: replay every *fully elapsed* window in order (empty
  // windows close as (0,0) — gaps still advance the trailing
  // compliance window). The trailing partial window is excluded — a
  // handful of drain-phase events would otherwise dominate its bad
  // fraction and make burn_fast verdicts flaky — unless the whole run
  // fits inside the first window, which is then all there is.
  const std::uint64_t evaluated_windows =
      std::max<std::uint64_t>(telemetry::window_index(r.horizon, cfg.window),
                              1);
  for (std::size_t i = 0; i < cfg.slos.size(); ++i) {
    telemetry::SloTracker tracker(cfg.slos[i]);
    for (std::uint64_t w = 0; w < evaluated_windows; ++w) {
      tracker.close_window(good_events[i].at(w), bad_events[i].at(w));
    }
    SloReport report;
    report.spec = tracker.spec();
    report.state = tracker.state();
    report.windows = tracker.windows();
    report.good = tracker.good_total();
    report.bad = tracker.bad_total();
    report.trailing_events = tracker.trailing_events();
    report.trailing_bad = tracker.trailing_bad();
    report.budget_events = tracker.budget_events();
    report.burn_slow = tracker.burn_slow();
    report.max_burn_fast = tracker.max_burn_fast();
    report.breach_windows = tracker.breach_windows();
    report.first_breach_window = tracker.first_breach_window();
    report.transitions = tracker.transitions();
    r.slo.push_back(std::move(report));
  }

  // Worst-N in descending-response order, then the guilty stage: the
  // largest summed contribution across the retained tail samples.
  std::sort(r.worst.begin(), r.worst.end(), worse);
  if (!r.worst.empty()) {
    std::array<Micros, kNumAttrStages> contribution{};
    for (const TailSample& s : r.worst) {
      for (std::size_t i = 0; i < telemetry::kNumTraceStages; ++i) {
        contribution[i] += s.stage_us[i];
      }
      contribution[kAttrQueueWait] += s.wait;
      contribution[kAttrOther] += s.untraced;
    }
    std::size_t guilty = 0;
    for (std::size_t i = 1; i < kNumAttrStages; ++i) {
      if (contribution[i] > contribution[guilty]) guilty = i;
    }
    r.guilty_stage = attr_stage_name(guilty);
  }
  return r;
}

}  // namespace ssdse
