#include "stats/resample.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "stats/descriptive.hpp"

namespace wehey::stats {

std::vector<double> random_half(std::span<const double> xs, Rng& rng) {
  std::vector<double> pool(xs.begin(), xs.end());
  const std::size_t take = pool.size() / 2;
  // Partial Fisher-Yates: after i swaps, pool[0..i) is a uniform sample.
  for (std::size_t i = 0; i < take; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(pool.size()) - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(take);
  return pool;
}

double relative_mean_difference(std::span<const double> a,
                                std::span<const double> b) {
  const double ma = mean(a);
  const double mb = mean(b);
  const double denom = std::max(ma, mb);
  if (denom == 0.0) return 0.0;
  return (ma - mb) / denom;
}

std::vector<double> half_sample_mean_difference(std::span<const double> xs,
                                                std::span<const double> ys,
                                                std::size_t iterations,
                                                Rng& rng) {
  WEHEY_EXPECTS(xs.size() >= 2 && ys.size() >= 2);
  std::vector<double> out;
  out.reserve(iterations);
  for (std::size_t it = 0; it < iterations; ++it) {
    const auto xh = random_half(xs, rng);
    const auto yh = random_half(ys, rng);
    out.push_back(relative_mean_difference(xh, yh));
  }
  return out;
}

Interval wilson_interval(std::size_t successes, std::size_t trials,
                         double z) {
  if (trials == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - margin), std::min(1.0, center + margin)};
}

}  // namespace wehey::stats
