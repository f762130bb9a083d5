#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace wehey::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return ss / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min(std::span<const double> xs) {
  WEHEY_EXPECTS(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  WEHEY_EXPECTS(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double quantile(std::span<const double> xs, double q) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted_quantile(sorted, q);
}

double sorted_quantile(std::span<const double> sorted, double q) {
  WEHEY_EXPECTS(!sorted.empty());
  WEHEY_EXPECTS(q >= 0.0 && q <= 1.0);
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  s.min = min(xs);
  s.q1 = quantile(xs, 0.25);
  s.median = quantile(xs, 0.5);
  s.q3 = quantile(xs, 0.75);
  s.max = max(xs);
  s.mean = mean(xs);
  return s;
}

}  // namespace wehey::stats
