#include "src/telemetry/windowed.hpp"

#include <algorithm>
#include <stdexcept>

namespace ssdse::telemetry {

std::uint64_t window_index(Micros now, Micros width) {
  if (now <= Micros{}) return 0;
  return static_cast<std::uint64_t>(now / width);
}

WindowedSeries::WindowedSeries(Micros width) : width_(width) {
  if (width <= Micros{}) {
    throw std::invalid_argument("WindowedSeries: width must be positive");
  }
}

LatencyHistogram& WindowedSeries::cell_for(std::uint64_t index) {
  if (!cells_.empty() && cells_.back().index == index) {
    return cells_.back().hist;
  }
  if (cells_.empty() || cells_.back().index < index) {
    cells_.push_back(WindowCell{index, LatencyHistogram{}});
    return cells_.back().hist;
  }
  // Out-of-order sample (a completion that lands in an earlier window
  // than the last one recorded): binary-search the sorted cell list and
  // insert if missing.
  auto it = std::lower_bound(
      cells_.begin(), cells_.end(), index,
      [](const WindowCell& c, std::uint64_t i) { return c.index < i; });
  if (it == cells_.end() || it->index != index) {
    it = cells_.insert(it, WindowCell{index, LatencyHistogram{}});
  }
  return it->hist;
}

void WindowedSeries::add(Micros now, double value) {
  cell_for(window_index(now, width_)).add(value);
  ++total_;
}

const WindowCell* WindowedSeries::cell(std::uint64_t index) const {
  auto it = std::lower_bound(
      cells_.begin(), cells_.end(), index,
      [](const WindowCell& c, std::uint64_t i) { return c.index < i; });
  if (it == cells_.end() || it->index != index) return nullptr;
  return &*it;
}

std::uint64_t WindowedSeries::last_index() const {
  return cells_.empty() ? 0 : cells_.back().index;
}

WindowedCounter::WindowedCounter(Micros width) : width_(width) {
  if (width <= Micros{}) {
    throw std::invalid_argument("WindowedCounter: width must be positive");
  }
}

void WindowedCounter::add(Micros now, std::uint64_t n) {
  const std::uint64_t index = window_index(now, width_);
  if (!cells_.empty() && cells_.back().index == index) {
    cells_.back().count += n;
  } else if (cells_.empty() || cells_.back().index < index) {
    cells_.push_back(Cell{index, n});
  } else {
    auto it = std::lower_bound(
        cells_.begin(), cells_.end(), index,
        [](const Cell& c, std::uint64_t i) { return c.index < i; });
    if (it == cells_.end() || it->index != index) {
      cells_.insert(it, Cell{index, n});
    } else {
      it->count += n;
    }
  }
  total_ += n;
}

std::uint64_t WindowedCounter::at(std::uint64_t index) const {
  auto it = std::lower_bound(
      cells_.begin(), cells_.end(), index,
      [](const Cell& c, std::uint64_t i) { return c.index < i; });
  if (it == cells_.end() || it->index != index) return 0;
  return it->count;
}

std::uint64_t WindowedCounter::last_index() const {
  return cells_.empty() ? 0 : cells_.back().index;
}

}  // namespace ssdse::telemetry
