#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "stats/descriptive.hpp"
#include "stats/empirical.hpp"
#include "stats/resample.hpp"

namespace wehey::stats {
namespace {

TEST(Empirical, CdfStepFunction) {
  EmpiricalDistribution d({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(d.cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(d.cdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(d.cdf(99.0), 1.0);
}

TEST(Empirical, QuantileMatchesSortedSample) {
  EmpiricalDistribution d({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 5.0);
}

TEST(Empirical, SampleDrawsFromSupport) {
  EmpiricalDistribution d({10.0, 20.0, 30.0});
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const double v = d.sample(rng);
    EXPECT_TRUE(v == 10.0 || v == 20.0 || v == 30.0);
  }
}

TEST(Histogram, CountsAndDensity) {
  const std::vector<double> xs{0.5, 1.5, 1.6, 2.5};
  const auto h = histogram(xs, 3, 0.0, 3.0);
  EXPECT_EQ(h.counts, (std::vector<double>{1, 2, 1}));
  // Density integrates to 1: sum(density * width) == 1.
  double integral = 0;
  for (double dens : h.densities) integral += dens * h.bin_width();
  EXPECT_NEAR(integral, 1.0, 1e-12);
}

TEST(Histogram, ValueAtUpperEdgeIncluded) {
  const std::vector<double> xs{3.0};
  const auto h = histogram(xs, 3, 0.0, 3.0);
  EXPECT_DOUBLE_EQ(h.counts.back(), 1.0);
}

TEST(Histogram, DegenerateRange) {
  const std::vector<double> xs{2.0, 2.0};
  const auto h = histogram(xs, 4);
  double total = std::accumulate(h.counts.begin(), h.counts.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 2.0);
}

TEST(Kde, IntegratesToOne) {
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.normal(0, 1));
  const auto curve = kde(xs, 256);
  ASSERT_EQ(curve.xs.size(), 256u);
  double integral = 0;
  for (std::size_t i = 1; i < curve.xs.size(); ++i) {
    integral += 0.5 * (curve.densities[i] + curve.densities[i - 1]) *
                (curve.xs[i] - curve.xs[i - 1]);
  }
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(Kde, PeaksNearMode) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.normal(5.0, 0.5));
  const auto curve = kde(xs, 128);
  const auto it =
      std::max_element(curve.densities.begin(), curve.densities.end());
  const double mode = curve.xs[static_cast<std::size_t>(
      it - curve.densities.begin())];
  EXPECT_NEAR(mode, 5.0, 0.3);
}

TEST(Resample, RandomHalfSizeAndMembership) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7};
  Rng rng(13);
  const auto half = random_half(xs, rng);
  EXPECT_EQ(half.size(), 3u);
  for (double v : half) {
    EXPECT_TRUE(std::find(xs.begin(), xs.end(), v) != xs.end());
  }
}

TEST(Resample, RelativeMeanDifference) {
  const std::vector<double> a{10, 10};
  const std::vector<double> b{5, 5};
  EXPECT_DOUBLE_EQ(relative_mean_difference(a, b), 0.5);
  EXPECT_DOUBLE_EQ(relative_mean_difference(b, a), -0.5);
  const std::vector<double> zeros{0, 0};
  EXPECT_DOUBLE_EQ(relative_mean_difference(zeros, zeros), 0.0);
}

TEST(Resample, HalfSampleDiffCentersOnTrueDiff) {
  Rng rng(17);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(rng.normal(10.0, 0.5));
    ys.push_back(rng.normal(8.0, 0.5));
  }
  const auto diffs = half_sample_mean_difference(xs, ys, 500, rng);
  EXPECT_EQ(diffs.size(), 500u);
  // True relative difference is (10-8)/10 = 0.2.
  EXPECT_NEAR(mean(diffs), 0.2, 0.02);
}

TEST(Resample, WilsonIntervalProperties) {
  const auto ci = wilson_interval(8, 10);
  EXPECT_GT(ci.low, 0.4);
  EXPECT_LT(ci.high, 1.0);
  EXPECT_LT(ci.low, 0.8);
  EXPECT_GT(ci.high, 0.8);
  // Degenerate cases stay in [0, 1].
  const auto zero = wilson_interval(0, 10);
  EXPECT_DOUBLE_EQ(zero.low, 0.0);
  EXPECT_GT(zero.high, 0.0);
  const auto all = wilson_interval(10, 10);
  EXPECT_DOUBLE_EQ(all.high, 1.0);
  EXPECT_LT(all.low, 1.0);
  const auto none = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(none.low, 0.0);
  EXPECT_DOUBLE_EQ(none.high, 1.0);
}

TEST(Resample, WilsonNarrowsWithTrials) {
  const auto small = wilson_interval(5, 10);
  const auto big = wilson_interval(500, 1000);
  EXPECT_LT(big.high - big.low, small.high - small.low);
}

}  // namespace
}  // namespace wehey::stats
