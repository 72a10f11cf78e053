#include "src/util/zipf.hpp"

#include <cmath>

namespace ssdse {

double generalized_harmonic(std::uint64_t n, double s) {
  // Exact sum for the head, Euler–Maclaurin for the tail.
  constexpr std::uint64_t kExact = 10000;
  double sum = 0.0;
  const std::uint64_t head = n < kExact ? n : kExact;
  for (std::uint64_t k = 1; k <= head; ++k) sum += std::pow(static_cast<double>(k), -s);
  if (n <= kExact) return sum;
  const double a = static_cast<double>(kExact);
  const double b = static_cast<double>(n);
  // integral of x^-s from a to b
  double integral;
  if (std::abs(s - 1.0) < 1e-12) {
    integral = std::log(b / a);
  } else {
    integral = (std::pow(b, 1.0 - s) - std::pow(a, 1.0 - s)) / (1.0 - s);
  }
  // Euler–Maclaurin correction terms.
  sum += integral + 0.5 * (std::pow(b, -s) - std::pow(a, -s));
  sum += (s / 12.0) * (std::pow(a, -s - 1.0) - std::pow(b, -s - 1.0));
  return sum;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
  h_x1_ = h(1.5) - 1.0;
  h_n_ = h(static_cast<double>(n) + 0.5);
  norm_ = generalized_harmonic(n, s);
}

double ZipfSampler::h(double x) const {
  // H(x) = integral of x^-s: (x^(1-s))/(1-s), with the s==1 limit.
  if (std::abs(s_ - 1.0) < 1e-12) return std::log(x);
  return std::pow(x, 1.0 - s_) / (1.0 - s_);
}

double ZipfSampler::h_inv(double x) const {
  if (std::abs(s_ - 1.0) < 1e-12) return std::exp(x);
  return std::pow((1.0 - s_) * x, 1.0 / (1.0 - s_));
}

std::uint64_t ZipfSampler::sample(Rng& rng) const {
  if (s_ <= 0.0) return 1 + rng.next_below(n_);
  // Hörmann & Derflinger rejection-inversion.
  for (;;) {
    const double u = h_n_ + rng.next_double() * (h_x1_ - h_n_);
    const double x = h_inv(u);
    auto k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    const double kd = static_cast<double>(k);
    if (kd - x <= 0.5 - 1e-12 ||
        u >= h(kd + 0.5) - std::pow(kd, -s_)) {
      return k;
    }
  }
}

double ZipfSampler::pmf(std::uint64_t k) const {
  if (k < 1 || k > n_) return 0.0;
  return std::pow(static_cast<double>(k), -s_) / norm_;
}

}  // namespace ssdse
