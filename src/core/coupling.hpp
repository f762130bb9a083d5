// Detection of a *coupled* shared bottleneck — the §7 extension.
//
// WeHeY's loss-trend correlation assumes the two replays are a small
// fraction of the traffic crossing the common bottleneck. The paper's §7
// countermeasure against per-flow throttling (crafting the two replays to
// appear as one flow, so they land in the same per-flow policer) breaks
// that assumption: the replays become the *only* occupants of the
// bottleneck and "significantly affect each other's performance", which
// the paper notes "will require different statistical tools".
//
// This module provides such a tool. When two elastic flows are the sole
// occupants of one token bucket, their throughputs are complementary:
// the aggregate is pinned at the bucket rate (low variability) while each
// individual flow oscillates as the two contend (high variability, often
// negatively correlated). Two flows behind *separate but identical*
// policers instead show individually-pinned rates, and flows sharing a
// large bottleneck with other traffic co-move positively. The test
// therefore declares coupling when
//
//   CoV(y1 + y2)  <  0.5 * min(CoV(y1), CoV(y2))
//
// with both individual coefficients of variation above a noise floor of
// 0.08 (below it the flows are individually pinned, as behind separate
// policers, and the test is not applicable), corroborated by a negative
// Pearson correlation between the two series.
#pragma once

#include <span>

namespace wehey::core {

struct CouplingResult {
  bool coupled = false;
  bool valid = false;
  double aggregate_cov = 0.0;
  double cov_1 = 0.0;
  double cov_2 = 0.0;
  double ratio = 0.0;        ///< aggregate CoV / min individual CoV
  double correlation = 0.0;  ///< Pearson r between the two series
};

/// `y1`, `y2`: per-interval throughput samples of the two simultaneous
/// replays (same interval grid).
CouplingResult coupled_bottleneck_test(std::span<const double> y1,
                                       std::span<const double> y2);

}  // namespace wehey::core
