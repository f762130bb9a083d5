// WeHeY's end-to-end decision pipeline (§3.1, operations 3 and 4).
//
// Input: measurements from the p0 single replays (original and
// bit-inverted) and from the simultaneous replays along p1/p2, plus the
// historical T_diff data. Output: either concrete evidence that the
// differentiation happens inside the target network area, or "no
// evidence" (in which case WeHeY adds nothing beyond WeHe).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "core/loss_correlation.hpp"
#include "core/throughput_comparison.hpp"
#include "core/wehe.hpp"
#include "netsim/measure.hpp"

namespace wehey::core {

enum class Verdict {
  NoEvidence,                ///< cannot attribute beyond WeHe's detection
  EvidenceWithinTargetArea,  ///< differentiation localized to the target
  /// The inputs were degraded (aborted replays, damaged uploads, skewed
  /// clocks) badly enough that *neither* detector could validly run — the
  /// honest answer is "this session measured nothing", not "no evidence".
  Inconclusive,
};

/// Machine-readable cause attached to an Inconclusive verdict.
enum class InconclusiveReason {
  None,
  EmptyMeasurement,            ///< a simultaneous measurement carried no data
  NonOverlappingMeasurements,  ///< p1/p2 windows share too little time
  InsufficientLossIntervals,   ///< loss series too short even after shrinking
  ShortTDiffHistory,           ///< too little history for the MWU comparison
};

const char* to_string(Verdict verdict);
const char* to_string(InconclusiveReason reason);

enum class Mechanism {
  None,
  PerClientThrottling,   ///< detected by throughput comparison (§4.1)
  CollectiveThrottling,  ///< detected by loss-trend correlation (§4.2)
};

struct LocalizationInput {
  // Single replays along p0 (a standard WeHe test).
  netsim::ReplayMeasurement p0_original;
  netsim::ReplayMeasurement p0_inverted;
  // Simultaneous replays along p1 and p2.
  netsim::ReplayMeasurement p1_original;
  netsim::ReplayMeasurement p2_original;
  netsim::ReplayMeasurement p1_inverted;
  netsim::ReplayMeasurement p2_inverted;
  /// Historical relative throughput differences between back-to-back WeHe
  /// tests (the T_diff source, §4.1).
  std::vector<double> t_diff_history;
  /// max_i { p_i's minimum RTT }; 0 lets the localizer estimate it from
  /// the measurements' RTT samples.
  Time base_rtt = 0;
};

/// The §4 detectors' thresholds. The base-RTT fallback and the
/// graceful-degradation limits (which engage only on a detected
/// degradation) are constants in localizer.cpp.
struct LocalizerConfig {
  WeheConfig wehe;
  ThroughputComparisonConfig throughput;
  LossCorrelationConfig loss;
};

/// One detector comparison recorded in a DecisionTrace: the statistic
/// that was tested, the threshold it was tested against, and a signed,
/// normalized margin. The margin is oriented by the recorded outcome bit:
/// positive means the statistic sits on the same side of the boundary as
/// the outcome, negative means the statistic alone would flip it (which
/// only happens when a secondary gate — KS validity, minimum effect size —
/// decided). |margin| is the normalized distance to the decision boundary,
/// so small |margin| identifies knife-edge decisions.
struct DecisionEntry {
  std::string detector;    ///< "confirmation.p1", "throughput.mwu", "loss.s01", ...
  double statistic = 0.0;  ///< the compared p-value
  double threshold = 0.0;  ///< alpha / fp it was compared against
  double margin = 0.0;
  bool outcome = false;  ///< the decision bit this comparison produced
  bool valid = false;    ///< whether the underlying test could run
  // Loss-size rows only: the Spearman rho and the interval size.
  double rho = 0.0;
  double sigma_ms = 0.0;
  bool is_loss_size = false;
};

/// Algorithm 1's conservative aggregation: common bottleneck iff
/// sizes_correlated > (1 - fp) * sizes_tested. The margin is the signed
/// count-space distance to that threshold, normalized by sizes_tested and
/// oriented by the outcome (same convention as DecisionEntry).
struct DecisionAggregation {
  bool present = false;  ///< the loss detector tested at least one size
  std::size_t sizes_tested = 0;
  std::size_t sizes_correlated = 0;
  std::size_t sizes_valid = 0;
  double threshold = 0.0;  ///< (1 - fp) * sizes_tested
  double margin = 0.0;
  bool outcome = false;
};

/// Deterministic provenance of one localize() verdict: every statistic the
/// pipeline compared against a threshold, in evaluation order, plus the
/// degradation paths that engaged and a single run-level verdict margin —
/// the normalized distance to the nearest event that would flip the final
/// verdict (the quantity the sweep-level knife-edge gate aggregates).
/// `evaluated` is false only on a default-constructed result (a session
/// that never reached analysis), which still serializes as an
/// empty-but-valid decision block.
struct DecisionTrace {
  bool evaluated = false;
  std::vector<DecisionEntry> detectors;
  DecisionAggregation aggregation;
  /// Degradation paths that engaged, in engagement order: "scrub",
  /// "desync_trim", "shrunk_sweep", "short_t_diff".
  std::vector<std::string> degradations;
  double verdict_margin = 0.0;
  bool has_verdict_margin = false;
};

struct LocalizationResult {
  Verdict verdict = Verdict::NoEvidence;
  Mechanism mechanism = Mechanism::None;
  WeheResult p1_confirmation;
  WeheResult p2_confirmation;
  bool confirmation_passed = false;
  ThroughputComparisonResult throughput;
  LossCorrelationResult loss;
  Time base_rtt_used = 0;
  /// True when the inputs needed scrubbing/trimming/shrinking. A verdict
  /// can still be reached on degraded inputs; Inconclusive means it could
  /// not.
  bool degraded = false;
  InconclusiveReason inconclusive_reason = InconclusiveReason::None;
  /// Ok, or the recoverable failure that made the verdict Inconclusive.
  Status status;
  /// Why the verdict is what it is (statistics, thresholds, margins).
  DecisionTrace trace;
};

/// Estimate the Alg. 1 base RTT from measurement latency samples: the
/// maximum over paths of each path's minimum RTT. Non-finite and
/// non-positive samples are ignored; if either path then has no usable
/// samples, or every remaining sample is one repeated value (a degenerate
/// upload, not a credible RTT floor), the estimate falls back to
/// `fallback`.
Time estimate_base_rtt(const netsim::ReplayMeasurement& m1,
                       const netsim::ReplayMeasurement& m2, Time fallback);

LocalizationResult localize(const LocalizationInput& input, Rng& rng,
                            const LocalizerConfig& cfg = {});

}  // namespace wehey::core
