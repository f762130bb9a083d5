#include "stats/empirical.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "stats/descriptive.hpp"

namespace wehey::stats {

EmpiricalDistribution::EmpiricalDistribution(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
  mean_ = stats::mean(sorted_);
}

double EmpiricalDistribution::cdf(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalDistribution::quantile(double q) const {
  return sorted_quantile(sorted_, q);
}

double EmpiricalDistribution::stddev() const { return stats::stddev(sorted_); }

double EmpiricalDistribution::sample(Rng& rng) const {
  WEHEY_EXPECTS(!sorted_.empty());
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(sorted_.size()) - 1));
  return sorted_[i];
}

Histogram histogram(std::span<const double> xs, std::size_t bins) {
  WEHEY_EXPECTS(!xs.empty());
  return histogram(xs, bins, min(xs), max(xs));
}

Histogram histogram(std::span<const double> xs, std::size_t bins, double lo,
                    double hi) {
  WEHEY_EXPECTS(bins > 0);
  WEHEY_EXPECTS(hi >= lo);
  Histogram h;
  h.lo = lo;
  h.hi = hi == lo ? lo + 1.0 : hi;  // degenerate range: one wide bin
  h.counts.assign(bins, 0.0);
  const double width = (h.hi - h.lo) / static_cast<double>(bins);
  for (double x : xs) {
    if (x < h.lo || x > h.hi) continue;
    auto idx = static_cast<std::size_t>((x - h.lo) / width);
    if (idx >= bins) idx = bins - 1;  // x == hi lands in the last bin
    h.counts[idx] += 1.0;
  }
  h.densities.resize(bins);
  const double total = static_cast<double>(xs.size());
  for (std::size_t i = 0; i < bins; ++i) {
    h.densities[i] = total > 0.0 ? h.counts[i] / (total * width) : 0.0;
  }
  return h;
}

KdeCurve kde(std::span<const double> samples, std::size_t grid_points,
             double bandwidth) {
  KdeCurve curve;
  if (samples.empty() || grid_points < 2) return curve;
  const double sd = stddev(samples);
  const double n = static_cast<double>(samples.size());
  double h = bandwidth;
  if (h <= 0.0) {
    // Silverman's rule; fall back to a small constant for constant samples.
    h = sd > 0.0 ? 1.06 * sd * std::pow(n, -0.2) : 1e-3;
  }
  const double lo = min(samples) - 3.0 * h;
  const double hi = max(samples) + 3.0 * h;
  const double step = (hi - lo) / static_cast<double>(grid_points - 1);
  curve.xs.resize(grid_points);
  curve.densities.resize(grid_points);
  const double norm = 1.0 / (n * h * std::sqrt(2.0 * 3.14159265358979323846));
  for (std::size_t i = 0; i < grid_points; ++i) {
    const double x = lo + static_cast<double>(i) * step;
    double density = 0.0;
    for (double s : samples) {
      const double z = (x - s) / h;
      density += std::exp(-0.5 * z * z);
    }
    curve.xs[i] = x;
    curve.densities[i] = density * norm;
  }
  return curve;
}

}  // namespace wehey::stats
