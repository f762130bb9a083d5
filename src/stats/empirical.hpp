// Empirical distributions: sorted-sample CDF/quantile/sampling, fixed-bin
// histograms, and a Gaussian kernel density estimate (used to render the
// Figure-2 style PDF curves of O_diff and T_diff).
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"

namespace wehey::stats {

/// Immutable empirical distribution built from a sample.
class EmpiricalDistribution {
 public:
  EmpiricalDistribution() = default;
  explicit EmpiricalDistribution(std::vector<double> samples);

  std::size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }
  std::span<const double> samples() const { return sorted_; }

  /// Empirical CDF F(x) = fraction of samples <= x.
  double cdf(double x) const;
  /// Linear-interpolation quantile, q in [0,1].
  double quantile(double q) const;
  double mean() const { return mean_; }
  double stddev() const;

  /// Draw one sample uniformly from the stored values (bootstrap draw).
  double sample(Rng& rng) const;

 private:
  std::vector<double> sorted_;
  double mean_ = 0.0;
};

struct Histogram {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<double> counts;     ///< per-bin counts
  std::vector<double> densities;  ///< counts normalized to integrate to 1

  double bin_width() const {
    return counts.empty() ? 0.0 : (hi - lo) / static_cast<double>(counts.size());
  }
};

Histogram histogram(std::span<const double> xs, std::size_t bins);
Histogram histogram(std::span<const double> xs, std::size_t bins, double lo,
                    double hi);

/// Gaussian KDE evaluated on an evenly spaced grid. `bandwidth <= 0` selects
/// Silverman's rule of thumb.
struct KdeCurve {
  std::vector<double> xs;
  std::vector<double> densities;
};

KdeCurve kde(std::span<const double> samples, std::size_t grid_points = 128,
             double bandwidth = 0.0);

}  // namespace wehey::stats
