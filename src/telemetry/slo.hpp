// SLO tracking: error budgets and burn-rate alerting (DESIGN.md §14).
//
// An SloSpec promises "quantile q of responses stays at or below
// threshold over a trailing compliance window of N telemetry windows".
// Equivalently: the fraction of *bad* events (response above threshold,
// or shed at admission) stays below the error budget 1-q. The tracker
// is fed one (good, bad) pair per closed telemetry window and keeps
// SRE-style burn rates:
//
//   burn_fast = (bad fraction of the last window)    / (1 - q)
//   burn_slow = (bad fraction of the trailing window) / (1 - q)
//
// burn == 1 means bad events arrive exactly at the budgeted rate;
// burn 14.4 on a fast window is the classic page-now signal (budget
// exhausted in 1/14.4 of the compliance period). The state machine:
//
//   kBreach  burn_slow >  1   (budget overspent across the trailing
//            window)          OR burn_fast >= fast_burn (alarm-rate
//                             spike in the last window)
//   kWarn    burn_slow >= warn_fraction OR burn_fast >= fast_burn / 2
//   kOk      otherwise
//
// burn_slow exactly 1.0 — bad events landing exactly on budget — is
// kWarn, not kBreach: the budget is spent, not overspent (tested in
// traffic_test).
//
// Everything is integer event counts + one division, evaluated per
// window — deterministic and mergeable into the run report's "slo"
// section.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "src/util/types.hpp"

namespace ssdse::telemetry {

enum class SloState : std::uint8_t { kOk = 0, kWarn, kBreach };

const char* to_string(SloState s);

struct SloSpec {
  std::string name;            // e.g. "p99_latency"
  double quantile = 0.99;      // promised quantile; budget = 1 - quantile
  double threshold_us = 0.0;   // a response is good iff <= threshold_us
  /// Trailing compliance window, in telemetry windows.
  std::uint32_t compliance_windows = 10;
  /// burn_fast at or above this is an immediate breach (Google SRE
  /// workbook's page threshold for a short window).
  double fast_burn = 14.4;
  /// burn_slow at or above this fraction of budget is a warning.
  double warn_fraction = 0.5;
  /// Minimum acceptable result coverage (shards merged / shards asked).
  /// A served response below the floor is a bad event even when it is
  /// fast — partial results burn error budget instead of silently
  /// counting as good. 0 disables the check: coverage is ignored.
  double coverage_floor = 0.0;

  /// Good iff at or below threshold — an exactly-on-threshold response
  /// meets the SLO (tested in traffic_test).
  [[nodiscard]] bool good(Micros response) const {
    return response <= micros(threshold_us);
  }

  /// Full event classification: latency good *and* coverage at or
  /// above the floor. Exactly-on-floor meets the SLO, mirroring the
  /// exactly-on-threshold convention (tested in traffic_test).
  [[nodiscard]] bool good_event(Micros response, double coverage) const {
    return good(response) &&
           (coverage_floor <= 0.0 || coverage >= coverage_floor);
  }
};

/// Per-spec error-budget accounting, fed one closed window at a time.
class SloTracker {
 public:
  explicit SloTracker(const SloSpec& spec);

  /// Close one telemetry window with `good` conforming and `bad`
  /// non-conforming events (empty windows pass (0, 0)) and re-evaluate
  /// the state machine.
  void close_window(std::uint64_t good, std::uint64_t bad);

  [[nodiscard]] const SloSpec& spec() const { return spec_; }
  [[nodiscard]] SloState state() const { return state_; }
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  [[nodiscard]] std::uint64_t good_total() const { return good_total_; }
  [[nodiscard]] std::uint64_t bad_total() const { return bad_total_; }

  /// Events inside the trailing compliance window.
  [[nodiscard]] std::uint64_t trailing_events() const {
    return trailing_good_ + trailing_bad_;
  }
  [[nodiscard]] std::uint64_t trailing_bad() const { return trailing_bad_; }
  /// Error budget over the trailing window, in events: (1-q) * events.
  [[nodiscard]] double budget_events() const;
  /// Trailing budget consumption: trailing_bad / budget_events
  /// (== burn_slow). 0 when the trailing window is empty.
  [[nodiscard]] double burn_slow() const;
  /// Burn rate of the most recently closed window.
  [[nodiscard]] double burn_fast() const { return burn_fast_; }
  /// Largest single-window burn rate seen over the run.
  [[nodiscard]] double max_burn_fast() const { return max_burn_fast_; }

  /// Windows whose evaluation landed in kBreach.
  [[nodiscard]] std::uint64_t breach_windows() const { return breach_windows_; }
  /// First breach window ordinal (0-based), or -1 if never breached.
  [[nodiscard]] std::int64_t first_breach_window() const {
    return first_breach_window_;
  }
  /// State-machine transitions (ok->warn, warn->breach, ...).
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }

 private:
  SloSpec spec_;
  SloState state_ = SloState::kOk;

  struct WindowCounts {
    std::uint64_t good = 0;
    std::uint64_t bad = 0;
  };
  std::deque<WindowCounts> trailing_;  // at most compliance_windows entries
  std::uint64_t trailing_good_ = 0;
  std::uint64_t trailing_bad_ = 0;

  std::uint64_t windows_ = 0;
  std::uint64_t good_total_ = 0;
  std::uint64_t bad_total_ = 0;
  double burn_fast_ = 0.0;
  double max_burn_fast_ = 0.0;
  std::uint64_t breach_windows_ = 0;
  std::int64_t first_breach_window_ = -1;
  std::uint64_t transitions_ = 0;
};

}  // namespace ssdse::telemetry
