// The Table-2 defaults of the emulation/simulation evaluation, plus the
// runtime scale of the benches' grids.
//
// Benches honour two environment variables:
//   WEHEY_FULL=1            — run the full paper-scale grid (slow);
//   WEHEY_RUNS_PER_CONFIG=N — repetitions per configuration (default
//                             depends on FULL).
#pragma once

#include <string>
#include <vector>

#include "experiments/scenario.hpp"

namespace wehey::experiments {

/// Defaults (bold values in Table 2).
inline constexpr double kDefaultInputRateFactor = 1.5;
inline constexpr double kDefaultQueueBurstFactor = 0.5;
inline constexpr double kDefaultBgDiffFraction = 0.5;
inline constexpr double kDefaultNcUtilization = 0.2;
inline constexpr double kDefaultRtt1Ms = 35.0;
inline constexpr double kDefaultRtt2Ms = 35.0;

/// The six trace pairs of §6.1: one TCP app and the five UDP apps.
std::vector<std::string> evaluation_apps();

struct RunScale {
  bool full = false;            ///< WEHEY_FULL
  std::size_t runs_per_config;  ///< repetitions per grid point
  /// Subsets of the grid used in the default (fast) mode.
  std::vector<double> input_rate_factors;
  std::vector<double> queue_burst_factors;
  Time replay_duration;
};

/// Resolve the run scale from the environment.
RunScale run_scale();

/// A §6.2-style testbed scenario at the default parameters.
ScenarioConfig default_scenario(const std::string& app, std::uint64_t seed);

}  // namespace wehey::experiments
