#include "core/throughput_comparison.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "stats/hypothesis.hpp"
#include "stats/resample.hpp"

namespace wehey::core {

std::vector<double> aggregate_samples(std::span<const double> a,
                                      std::span<const double> b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
  return out;
}

ThroughputComparisonResult throughput_comparison(
    std::span<const double> x, std::span<const double> y,
    std::span<const double> t_diff, Rng& rng,
    const ThroughputComparisonConfig& cfg) {
  ThroughputComparisonResult res;
  if (x.size() < 4 || y.size() < 4 || t_diff.size() < 8) return res;

  res.t_diff.reserve(t_diff.size());
  for (double v : t_diff) res.t_diff.push_back(std::fabs(v));

  // O_diff: one Monte-Carlo draw per T_diff data point (§4.1: the two
  // distributions are built with the same size).
  res.o_diff =
      stats::half_sample_mean_difference(x, y, t_diff.size(), rng);
  for (double& v : res.o_diff) v = std::fabs(v);

  const auto test = stats::mann_whitney_u(res.o_diff, res.t_diff,
                                          stats::Alternative::Less);
  res.p_value = test.p_value;
  res.valid = test.valid;
  res.common_bottleneck = test.valid && test.p_value < cfg.alpha;
  return res;
}

}  // namespace wehey::core
