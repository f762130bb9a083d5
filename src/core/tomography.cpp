#include "core/tomography.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "stats/descriptive.hpp"

namespace wehey::core {
namespace {

/// Alg. 4's quantile grid from which candidate loss thresholds are drawn.
constexpr int kThresholdCandidates = 9;
/// Thresholds must keep every path's performance within [kYMin, kYMax]
/// ("none of the paths is found lossy too often or too rarely").
constexpr double kYMin = 0.1;
constexpr double kYMax = 0.9;

/// Solve System 1 from per-interval binary loss statuses (true = lossy).
LinkPerformance solve_system(const std::vector<char>& lossy1,
                             const std::vector<char>& lossy2) {
  LinkPerformance perf;
  const std::size_t t_count = lossy1.size();
  if (t_count == 0 || lossy1.size() != lossy2.size()) return perf;

  double non_lossy_1 = 0, non_lossy_2 = 0, non_lossy_both = 0;
  for (std::size_t t = 0; t < t_count; ++t) {
    if (!lossy1[t]) ++non_lossy_1;
    if (!lossy2[t]) ++non_lossy_2;
    if (!lossy1[t] && !lossy2[t]) ++non_lossy_both;
  }
  const double T = static_cast<double>(t_count);
  const double y1 = non_lossy_1 / T;
  const double y2 = non_lossy_2 / T;
  const double y12 = non_lossy_both / T;
  if (y12 <= 0.0 || y1 <= 0.0 || y2 <= 0.0) return perf;  // unsolvable

  auto clamp01 = [](double v) { return std::clamp(v, 0.0, 1.0); };
  // System 1: y1 = x_c x_1, y2 = x_c x_2, y12 = x_c x_1 x_2.
  perf.x_c = clamp01(y1 * y2 / y12);
  perf.x_1 = clamp01(y12 / y2);
  perf.x_2 = clamp01(y12 / y1);
  perf.valid = true;
  return perf;
}

std::vector<char> threshold_status(const std::vector<double>& loss,
                                   double tau) {
  std::vector<char> out(loss.size());
  for (std::size_t t = 0; t < loss.size(); ++t) out[t] = loss[t] > tau;
  return out;
}

/// V2 labelling: lossy when the loss rate increased vs the previous
/// interval (the first interval is unlabelled and skipped).
std::vector<char> trend_status(const std::vector<double>& loss) {
  if (loss.size() < 2) return {};
  std::vector<char> out(loss.size() - 1);
  for (std::size_t t = 1; t < loss.size(); ++t) {
    out[t - 1] = loss[t] > loss[t - 1];
  }
  return out;
}

}  // namespace

LinkPerformance bin_loss_tomo_series(const std::vector<double>& loss1,
                                     const std::vector<double>& loss2,
                                     double tau) {
  WEHEY_EXPECTS(loss1.size() == loss2.size());
  return solve_system(threshold_status(loss1, tau),
                      threshold_status(loss2, tau));
}

LinkPerformance bin_loss_tomo(const netsim::ReplayMeasurement& m1,
                              const netsim::ReplayMeasurement& m2,
                              Time sigma, double tau) {
  const auto series = make_loss_rate_series(m1, m2, sigma);
  return bin_loss_tomo_series(series.path1, series.path2, tau);
}

bool bin_loss_tomo_plus_plus(const netsim::ReplayMeasurement& m1,
                             const netsim::ReplayMeasurement& m2, Time sigma,
                             double tau) {
  const auto perf = bin_loss_tomo(m1, m2, sigma, tau);
  return perf.valid && perf.x_1 > perf.x_c && perf.x_2 > perf.x_c;
}

NoParamsResult bin_loss_tomo_no_params(const netsim::ReplayMeasurement& m1,
                                       const netsim::ReplayMeasurement& m2,
                                       Time base_rtt) {
  WEHEY_EXPECTS(base_rtt > 0);
  NoParamsResult res;
  double gap1_sum = 0.0, gap2_sum = 0.0;

  for (Time sigma : interval_size_sweep(base_rtt)) {
    const auto series = make_loss_rate_series(m1, m2, sigma);
    if (series.path1.size() < 3) continue;

    // Candidate loss thresholds: quantiles of the pooled loss rates, then
    // filtered so that neither path is "lossy" too often or too rarely
    // (0.1 <= y_i <= 0.9, §4.3 "V1").
    std::vector<double> pooled = series.path1;
    pooled.insert(pooled.end(), series.path2.begin(), series.path2.end());
    for (int k = 1; k <= kThresholdCandidates; ++k) {
      const double q = static_cast<double>(k) /
                       static_cast<double>(kThresholdCandidates + 1);
      const double tau = stats::quantile(pooled, q);

      auto y_of = [&](const std::vector<double>& loss) {
        double non_lossy = 0;
        for (double v : loss) {
          if (v <= tau) ++non_lossy;
        }
        return non_lossy / static_cast<double>(loss.size());
      };
      const double y1 = y_of(series.path1);
      const double y2 = y_of(series.path2);
      if (y1 < kYMin || y1 > kYMax || y2 < kYMin || y2 > kYMax) {
        continue;
      }
      const auto perf =
          bin_loss_tomo_series(series.path1, series.path2, tau);
      if (!perf.valid) continue;
      gap1_sum += perf.x_1 - perf.x_c;
      gap2_sum += perf.x_2 - perf.x_c;
      ++res.combinations;
    }
  }
  if (res.combinations > 0) {
    res.avg_gap_1 = gap1_sum / static_cast<double>(res.combinations);
    res.avg_gap_2 = gap2_sum / static_cast<double>(res.combinations);
    res.common_bottleneck = res.avg_gap_1 > 0.0 && res.avg_gap_2 > 0.0;
  }
  return res;
}

LossTrendTomoResult loss_trend_tomography(
    const netsim::ReplayMeasurement& m1, const netsim::ReplayMeasurement& m2,
    Time base_rtt) {
  WEHEY_EXPECTS(base_rtt > 0);
  LossTrendTomoResult res;
  double gap1_sum = 0.0, gap2_sum = 0.0;

  for (Time sigma : interval_size_sweep(base_rtt)) {
    const auto series = make_loss_rate_series(m1, m2, sigma);
    const auto s1 = trend_status(series.path1);
    const auto s2 = trend_status(series.path2);
    if (s1.size() < 3) continue;
    const auto perf = solve_system(s1, s2);
    if (!perf.valid) continue;
    gap1_sum += perf.x_1 - perf.x_c;
    gap2_sum += perf.x_2 - perf.x_c;
    ++res.sizes_used;
  }
  if (res.sizes_used > 0) {
    res.avg_gap_1 = gap1_sum / static_cast<double>(res.sizes_used);
    res.avg_gap_2 = gap2_sum / static_cast<double>(res.sizes_used);
    res.common_bottleneck = res.avg_gap_1 > 0.0 && res.avg_gap_2 > 0.0;
  }
  return res;
}

}  // namespace wehey::core
