// Resampling utilities: the Monte-Carlo half-sampling used to build O_diff
// in the throughput-comparison algorithm (§4.1), and the Wilson interval
// Table 1's bench puts around its detection rates.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"

namespace wehey::stats {

/// A uniformly random subset of floor(xs.size()/2) elements of xs (sampling
/// without replacement; partial Fisher-Yates).
std::vector<double> random_half(std::span<const double> xs, Rng& rng);

/// The relative mean difference used throughout §4.1:
/// (mean(a) - mean(b)) / max(mean(a), mean(b)); 0 when both means are 0.
double relative_mean_difference(std::span<const double> a,
                                std::span<const double> b);

/// Monte-Carlo distribution of the relative mean difference between random
/// halves of X and Y (the O_diff construction of §4.1).
std::vector<double> half_sample_mean_difference(std::span<const double> xs,
                                                std::span<const double> ys,
                                                std::size_t iterations,
                                                Rng& rng);

/// Wilson score interval for a binomial proportion (successes/trials) at
/// confidence z (1.96 = 95%). Well-behaved for the small trial counts the
/// FAST bench grids produce.
struct Interval {
  double low = 0.0;
  double high = 1.0;
};
Interval wilson_interval(std::size_t successes, std::size_t trials,
                         double z = 1.96);

}  // namespace wehey::stats
