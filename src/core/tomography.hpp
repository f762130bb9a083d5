// Classic binary loss tomography on the Figure-1 topology, and the
// intermediate detector designs the paper evolved through (§4.3,
// Appendix B). These are WeHeY's *baselines*: they are what Figure 6
// compares the final loss-trend correlation algorithm against.
//
//  * BinLossTomo (Alg. 2) — the full-rank system of equations of Ghita et
//    al.: label each path lossy/non-lossy per interval against a loss
//    threshold tau, estimate path performance y_i = P(non-lossy) and joint
//    performance y_12, and solve System 1 for the link-sequence
//    performances (x_c, x_1, x_2).
//    Note: the paper's pseudo-code prints y_i as the sum of LossStatus;
//    System 1 and the surrounding text define y_i as the probability of
//    being NON-lossy, which is what the closed-form solution on line 9
//    requires — we implement the latter.
//  * BinLossTomo++ (Alg. 3) — detect a common bottleneck iff the common
//    link sequence has worse inferred performance than both non-common
//    ones.
//  * BinLossTomoNoParams (Alg. 4) — sweep all reasonable interval sizes
//    and loss thresholds (those keeping 0.1 <= y_i <= 0.9) and require the
//    average performance gap to be positive for both non-common links.
//  * LossTrendTomo (the "V2" design) — replaces the loss threshold with
//    "loss rate increased relative to the previous interval".
//
// Every detector keeps only intervals in which each path sent at least 10
// packets, and Alg. 4 and V2 sweep Alg. 1's nine interval sizes of 10 to
// 50 RTTs.
#pragma once

#include <optional>
#include <vector>

#include "common/time.hpp"
#include "core/loss_series.hpp"
#include "netsim/measure.hpp"

namespace wehey::core {

/// Inferred probability of each link sequence being non-lossy.
struct LinkPerformance {
  double x_c = 1.0;  ///< common link sequence
  double x_1 = 1.0;  ///< non-common sequence of p1
  double x_2 = 1.0;  ///< non-common sequence of p2
  bool valid = false;
};

/// Algorithm 2. `sigma` is the interval size, `tau` the loss threshold.
LinkPerformance bin_loss_tomo(const netsim::ReplayMeasurement& m1,
                              const netsim::ReplayMeasurement& m2,
                              Time sigma, double tau);

/// Algorithm 2 on precomputed loss-rate series (exposed for the Figure-3
/// threshold sweep and for tests).
LinkPerformance bin_loss_tomo_series(const std::vector<double>& loss1,
                                     const std::vector<double>& loss2,
                                     double tau);

/// Algorithm 3: common bottleneck iff x_1 > x_c and x_2 > x_c.
bool bin_loss_tomo_plus_plus(const netsim::ReplayMeasurement& m1,
                             const netsim::ReplayMeasurement& m2, Time sigma,
                             double tau);

struct NoParamsResult {
  bool common_bottleneck = false;
  double avg_gap_1 = 0.0;  ///< average of x_1 - x_c over the sweep
  double avg_gap_2 = 0.0;
  std::size_t combinations = 0;  ///< (sigma, tau) pairs actually used
};

/// Algorithm 4. `base_rtt` scales the interval-size sweep.
NoParamsResult bin_loss_tomo_no_params(const netsim::ReplayMeasurement& m1,
                                       const netsim::ReplayMeasurement& m2,
                                       Time base_rtt);

/// The V2 intermediate design: binary tomography where "lossy" means the
/// loss rate increased relative to the previous interval; common
/// bottleneck iff x_1 > x_c and x_2 > x_c averaged over the size sweep.
struct LossTrendTomoResult {
  bool common_bottleneck = false;
  double avg_gap_1 = 0.0;
  double avg_gap_2 = 0.0;
  std::size_t sizes_used = 0;
};

LossTrendTomoResult loss_trend_tomography(
    const netsim::ReplayMeasurement& m1, const netsim::ReplayMeasurement& m2,
    Time base_rtt);

}  // namespace wehey::core
