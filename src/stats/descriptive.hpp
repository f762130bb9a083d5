// Descriptive statistics over samples held in std::vector<double> /
// std::span<const double>. All functions but sorted_quantile treat the
// input as an unordered sample; functions that need sorted data sort a
// copy.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wehey::stats {

double mean(std::span<const double> xs);
/// Unbiased (n-1) sample variance; 0 for fewer than two samples.
double variance(std::span<const double> xs);
double stddev(std::span<const double> xs);
double min(std::span<const double> xs);
double max(std::span<const double> xs);
double median(std::span<const double> xs);

/// Linear-interpolation quantile, q in [0,1] (same convention as
/// numpy.quantile's default).
double quantile(std::span<const double> xs, double q);

/// quantile() of input that is already sorted ascending: the one
/// implementation every quantile of a sample set goes through.
double sorted_quantile(std::span<const double> sorted, double q);

/// Five-number summary plus mean — handy for the Figure-5 style boxplots.
struct Summary {
  std::size_t n = 0;
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0, mean = 0;
};

Summary summarize(std::span<const double> xs);

}  // namespace wehey::stats
