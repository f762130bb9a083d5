#include "core/coupling.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"

namespace wehey::core {
namespace {

/// The aggregate CoV must be below this fraction of the smaller
/// individual CoV.
constexpr double kRatioThreshold = 0.5;
/// The CoV floor each individual series must reach.
constexpr double kMinIndividualCov = 0.08;

double coefficient_of_variation(std::span<const double> xs) {
  const double m = stats::mean(xs);
  if (m <= 0.0) return 0.0;
  return stats::stddev(xs) / m;
}

}  // namespace

CouplingResult coupled_bottleneck_test(std::span<const double> y1,
                                       std::span<const double> y2) {
  CouplingResult res;
  if (y1.size() != y2.size() || y1.size() < 8) return res;

  std::vector<double> aggregate(y1.size());
  for (std::size_t i = 0; i < y1.size(); ++i) aggregate[i] = y1[i] + y2[i];

  res.cov_1 = coefficient_of_variation(y1);
  res.cov_2 = coefficient_of_variation(y2);
  res.aggregate_cov = coefficient_of_variation(aggregate);
  const double min_individual = std::min(res.cov_1, res.cov_2);
  if (min_individual <= 0.0) return res;
  res.ratio = res.aggregate_cov / min_individual;

  const auto corr = stats::pearson(y1, y2);
  res.correlation = corr.valid ? corr.coefficient : 0.0;
  res.valid = true;

  const bool individually_variable = min_individual >= kMinIndividualCov;
  const bool aggregate_pinned = res.ratio < kRatioThreshold;
  const bool anti_correlated = res.correlation < 0.0;
  res.coupled =
      individually_variable && aggregate_pinned && anti_correlated;
  return res;
}

}  // namespace wehey::core
