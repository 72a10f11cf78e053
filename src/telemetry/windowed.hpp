// Time-windowed telemetry (DESIGN.md §14).
//
// The run-level LatencyHistogram answers "what was p99 over the whole
// run" — one end-of-run blur. Open-loop traffic needs per-window
// quantile *series* keyed by simulated time, so a flash crowd that
// blows up latency for two seconds is visible as two bad windows
// instead of a slightly fatter run aggregate. A WindowedSeries keeps
// one LatencyHistogram per fixed-width window of the simulated clock;
// a WindowedCounter keeps one counter per window.
//
// Windows are created lazily on first sample (a quiet series costs
// nothing) and kept sorted by index; the common case — simulated time
// moving forward — appends at the back in O(1).
#pragma once

#include <cstdint>
#include <vector>

#include "src/util/stats.hpp"
#include "src/util/types.hpp"

namespace ssdse::telemetry {

/// Window index for a simulated timestamp: floor(now / width).
[[nodiscard]] std::uint64_t window_index(Micros now, Micros width);

/// One window's latency distribution.
struct WindowCell {
  std::uint64_t index = 0;  // window_index of every sample in the cell
  LatencyHistogram hist;
};

/// Per-window latency histograms over simulated time.
class WindowedSeries {
 public:
  explicit WindowedSeries(Micros width = kSecond);

  /// Record `value` in the window containing simulated time `now`.
  void add(Micros now, double value);
  /// Histogram boundary (DESIGN.md §16): latencies leave the Micros
  /// unit here, explicitly.
  void add(Micros now, Micros value) { add(now, value.value()); }

  [[nodiscard]] Micros width() const { return width_; }
  /// Total samples across all windows.
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Cells sorted by window index; gaps mean empty windows.
  [[nodiscard]] const std::vector<WindowCell>& cells() const { return cells_; }
  /// The cell for `index`, or nullptr when that window saw no samples
  /// (an empty window has no histogram; its quantiles are 0 by
  /// convention, matching LatencyHistogram::quantile on empty).
  [[nodiscard]] const WindowCell* cell(std::uint64_t index) const;
  /// Largest populated window index; 0 when the series is empty.
  [[nodiscard]] std::uint64_t last_index() const;

 private:
  LatencyHistogram& cell_for(std::uint64_t index);

  Micros width_;
  std::uint64_t total_ = 0;
  std::vector<WindowCell> cells_;
};

/// Per-window event counter over simulated time (same keying as
/// WindowedSeries, without the histograms).
class WindowedCounter {
 public:
  explicit WindowedCounter(Micros width = kSecond);

  void add(Micros now, std::uint64_t n = 1);

  [[nodiscard]] Micros width() const { return width_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Count in window `index` (0 for windows never incremented).
  [[nodiscard]] std::uint64_t at(std::uint64_t index) const;
  [[nodiscard]] std::uint64_t last_index() const;

 private:
  struct Cell {
    std::uint64_t index = 0;
    std::uint64_t count = 0;
  };

  Micros width_;
  std::uint64_t total_ = 0;
  std::vector<Cell> cells_;
};

}  // namespace ssdse::telemetry
