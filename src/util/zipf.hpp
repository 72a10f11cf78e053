// Zipf(ian) distribution sampling.
//
// Term popularity in search engines famously follows a Zipf-like law
// (paper §III cites Saraiva et al.); the workload generator and the
// synthetic corpus both sample from large-N Zipf distributions, so we use
// the rejection-inversion method of Hörmann & Derflinger (1996), which is
// O(1) per sample for any N, instead of a precomputed CDF table that
// would cost O(N) memory per distribution.
#pragma once

#include <cstdint>

#include "src/util/rng.hpp"

namespace ssdse {

class ZipfSampler {
 public:
  /// Zipf over ranks {1, ..., n} with exponent s >= 0 (s == 0 is
  /// uniform). Probability of rank k is proportional to k^-s.
  ZipfSampler(std::uint64_t n, double s);

  /// Draw a rank in [1, n].
  std::uint64_t sample(Rng& rng) const;

  /// Probability mass of rank k (exact, O(1) after construction).
  double pmf(std::uint64_t k) const;

  [[nodiscard]] std::uint64_t n() const { return n_; }
  [[nodiscard]] double exponent() const { return s_; }

 private:
  double h(double x) const;
  double h_inv(double x) const;

  std::uint64_t n_;
  double s_;
  double h_x1_;      // h(1.5) - 1
  double h_n_;       // h(n + 0.5)
  double norm_;      // generalized harmonic number H_{n,s}
};

/// Generalized harmonic number H_{n,s} = sum_{k=1..n} k^-s, computed with
/// an Euler–Maclaurin tail so it stays fast for n in the hundreds of
/// millions.
double generalized_harmonic(std::uint64_t n, double s);

}  // namespace ssdse
