#include "core/localizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/log.hpp"
#include "stats/descriptive.hpp"

namespace wehey::core {

namespace {

constexpr Time kFallbackRtt = milliseconds(35);  ///< when no RTT samples exist

// Graceful-degradation limits. They only engage once a degradation is
// *detected* (scrubbed samples, desynchronized windows, empty series), so
// a clean run never enters any of these paths.

/// Start-time disagreement between the simultaneous measurements beyond
/// which they are trimmed to their overlapping window (a clean
/// back-to-back start differs by ~5 ms; a skewed server clock by seconds).
constexpr Time kDesyncTolerance = milliseconds(500);
/// Overlap (as a fraction of the longer window) below which the loss pair
/// is unusable.
constexpr double kMinOverlapFraction = 0.2;
/// When shrinking the Alg. 1 sweep, keep interval sizes that fit at least
/// this many intervals into the measured window.
constexpr int kMinIntervalsPerSize = 8;
/// Minimum T_diff history for the §4.1 comparison to mean anything.
constexpr std::size_t kMinTDiff = 8;

/// A measurement that cannot support any analysis: no time window or no
/// delivered data at all (e.g. a replay that died before its first byte).
bool unusable(const netsim::ReplayMeasurement& m) {
  return m.duration() <= 0 || m.deliveries.empty();
}

bool bad_rtt_sample(double r) { return !std::isfinite(r) || r <= 0.0; }

/// Whether a damaged upload left samples a clean measurement can never
/// contain: non-finite/non-positive RTTs, or events displaced far outside
/// the replay window (clean drain events trail the window by seconds, not
/// by multiples of it).
bool needs_scrub(const netsim::ReplayMeasurement& m) {
  const Time margin = std::max<Time>(m.duration(), seconds(5));
  const Time lo = m.start - margin;
  const Time hi = m.end + margin;
  const auto time_bad = [&](Time t) { return t < lo || t > hi; };
  return std::any_of(m.rtt_ms.begin(), m.rtt_ms.end(), bad_rtt_sample) ||
         std::any_of(m.tx_times.begin(), m.tx_times.end(), time_bad) ||
         std::any_of(m.loss_times.begin(), m.loss_times.end(), time_bad) ||
         std::any_of(m.deliveries.begin(), m.deliveries.end(),
                     [&](const netsim::Delivery& d) { return time_bad(d.at); });
}

void scrub(netsim::ReplayMeasurement& m) {
  const Time margin = std::max<Time>(m.duration(), seconds(5));
  const Time lo = m.start - margin;
  const Time hi = m.end + margin;
  const auto time_bad = [&](Time t) { return t < lo || t > hi; };
  std::erase_if(m.rtt_ms, bad_rtt_sample);
  std::erase_if(m.tx_times, time_bad);
  std::erase_if(m.loss_times, time_bad);
  std::erase_if(m.deliveries,
                [&](const netsim::Delivery& d) { return time_bad(d.at); });
}

/// Restrict a measurement to [lo, hi] (the overlap window of a
/// desynchronized pair).
netsim::ReplayMeasurement trimmed(const netsim::ReplayMeasurement& m, Time lo,
                                  Time hi) {
  netsim::ReplayMeasurement out = m;
  out.start = std::max(m.start, lo);
  out.end = std::min(m.end, hi);
  const auto outside = [&](Time t) { return t < out.start || t > out.end; };
  std::erase_if(out.tx_times, outside);
  std::erase_if(out.loss_times, outside);
  std::erase_if(out.deliveries,
                [&](const netsim::Delivery& d) { return outside(d.at); });
  return out;
}

/// Signed, normalized distance of a p-value to its threshold, oriented by
/// the recorded outcome bit (positive = the statistic supports the
/// outcome). Each side is normalized by its own span — threshold on the
/// detect side, 1 - threshold on the clear side — so both sides cover
/// [0, 1] and margins are comparable across detectors.
double p_margin(double p, double threshold, bool outcome) {
  const double d = p < threshold
                       ? (threshold - p) / threshold
                       : -((p - threshold) / (1.0 - threshold));
  return outcome ? d : -d;
}

/// The smallest integer count that satisfies "count > threshold" — the
/// number of correlated sizes Alg. 1's aggregation requires.
std::size_t required_correlated(double threshold) {
  const double floor = std::floor(threshold);
  const double required = floor == threshold ? threshold + 1.0 : floor + 1.0;
  return required < 0.0 ? 0 : static_cast<std::size_t>(required);
}

}  // namespace

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::NoEvidence: return "no evidence";
    case Verdict::EvidenceWithinTargetArea:
      return "evidence within target area";
    case Verdict::Inconclusive: return "inconclusive";
  }
  return "?";
}

const char* to_string(InconclusiveReason reason) {
  switch (reason) {
    case InconclusiveReason::None: return "none";
    case InconclusiveReason::EmptyMeasurement: return "empty measurement";
    case InconclusiveReason::NonOverlappingMeasurements:
      return "non-overlapping measurements";
    case InconclusiveReason::InsufficientLossIntervals:
      return "insufficient loss intervals";
    case InconclusiveReason::ShortTDiffHistory:
      return "short t_diff history";
  }
  return "?";
}

Time estimate_base_rtt(const netsim::ReplayMeasurement& m1,
                       const netsim::ReplayMeasurement& m2, Time fallback) {
  double min1 = 0, min2 = 0, all_min = 0, all_max = 0;
  bool any1 = false, any2 = false;
  auto scan = [&](const netsim::ReplayMeasurement& m, double& lo, bool& any) {
    for (double r : m.rtt_ms) {
      if (bad_rtt_sample(r)) continue;
      if (!any || r < lo) lo = r;
      if (!(any1 || any2) || r < all_min) all_min = r;
      if (!(any1 || any2) || r > all_max) all_max = r;
      any = true;
    }
  };
  scan(m1, min1, any1);
  scan(m2, min2, any2);
  // A blind path leaves no credible max-of-mins; a zero-spread sample set
  // is a constant filler, not a measured RTT floor.
  if (!any1 || !any2) return fallback;
  if (all_min == all_max) return fallback;
  return std::max(milliseconds(min1), milliseconds(min2));
}

LocalizationResult localize(const LocalizationInput& input, Rng& rng,
                            const LocalizerConfig& cfg) {
  LocalizationResult res;
  auto note = [&](InconclusiveReason reason) {
    res.degraded = true;
    if (res.inconclusive_reason == InconclusiveReason::None) {
      res.inconclusive_reason = reason;
    }
  };
  auto engage = [&](const char* path) {
    res.degraded = true;
    res.trace.degradations.emplace_back(path);
  };
  // Whether op-4a's MWU comparison actually ran (vs a default-constructed
  // ThroughputComparisonResult after a confirmation failure).
  bool throughput_ran = false;

  // Builds res.trace from whatever the pipeline computed so far; called
  // immediately before every return so the trace is coherent on every
  // path, early returns included.
  const auto finish_trace = [&] {
    DecisionTrace& tr = res.trace;
    tr.evaluated = true;
    const auto add_p = [&](const char* name, double p, double threshold,
                           bool outcome, bool valid) -> DecisionEntry& {
      DecisionEntry e;
      e.detector = name;
      e.statistic = p;
      e.threshold = threshold;
      e.margin = p_margin(p, threshold, outcome);
      e.outcome = outcome;
      e.valid = valid;
      tr.detectors.push_back(std::move(e));
      return tr.detectors.back();
    };
    // Operation 3: the two confirmation KS tests (always computed). A
    // confirmation is "valid" when its series carried data at all.
    add_p("confirmation.p1", res.p1_confirmation.p_value, cfg.wehe.alpha,
          res.p1_confirmation.differentiation,
          res.p1_confirmation.original_mean_bps > 0.0 ||
              res.p1_confirmation.inverted_mean_bps > 0.0);
    add_p("confirmation.p2", res.p2_confirmation.p_value, cfg.wehe.alpha,
          res.p2_confirmation.differentiation,
          res.p2_confirmation.original_mean_bps > 0.0 ||
              res.p2_confirmation.inverted_mean_bps > 0.0);
    // Operation 4a: the MWU throughput comparison, when it ran.
    if (throughput_ran) {
      add_p("throughput.mwu", res.throughput.p_value, cfg.throughput.alpha,
            res.throughput.common_bottleneck, res.throughput.valid);
    }
    // Operation 4b: one row per Alg. 1 interval size, plus the
    // conservative aggregation.
    char name[32];
    for (std::size_t i = 0; i < res.loss.per_size.size(); ++i) {
      const IntervalOutcome& o = res.loss.per_size[i];
      std::snprintf(name, sizeof(name), "loss.s%02u",
                    static_cast<unsigned>(i + 1));
      DecisionEntry& e =
          add_p(name, o.p_value, cfg.loss.fp, o.correlated, o.valid);
      e.rho = o.rho;
      e.sigma_ms = to_milliseconds(o.sigma);
      e.is_loss_size = true;
    }
    if (res.loss.sizes_tested > 0) {
      DecisionAggregation& agg = tr.aggregation;
      agg.present = true;
      agg.sizes_tested = res.loss.sizes_tested;
      agg.sizes_correlated = res.loss.sizes_correlated;
      agg.sizes_valid = res.loss.sizes_valid;
      agg.threshold =
          (1.0 - cfg.loss.fp) * static_cast<double>(res.loss.sizes_tested);
      const double d = (static_cast<double>(res.loss.sizes_correlated) -
                        agg.threshold) /
                       static_cast<double>(res.loss.sizes_tested);
      agg.outcome = res.loss.common_bottleneck;
      agg.margin = agg.outcome ? d : -d;
    }

    // Run-level verdict margin: normalized distance to the nearest event
    // that would flip the final verdict. k-th smallest per-size margins
    // capture that flipping the aggregation takes k sizes to cross their
    // own boundaries.
    const std::size_t required = required_correlated(
        (1.0 - cfg.loss.fp) * static_cast<double>(res.loss.sizes_tested));
    const auto kth_size_margin = [&](bool correlated_side,
                                     std::size_t k) -> std::vector<double> {
      std::vector<double> margins;
      for (const DecisionEntry& e : tr.detectors) {
        if (!e.is_loss_size || !e.valid) continue;
        if (e.outcome != correlated_side) continue;
        margins.push_back(e.margin < 0.0 ? 0.0 : e.margin);
      }
      std::sort(margins.begin(), margins.end());
      if (k == 0 || margins.size() < k) return {};
      return {margins[k - 1]};
    };
    double margin = 0.0;
    bool has_margin = false;
    const auto propose = [&](double m) {
      if (!has_margin || m < margin) margin = m;
      has_margin = true;
    };
    if (res.verdict == Verdict::EvidenceWithinTargetArea) {
      if (res.mechanism == Mechanism::PerClientThrottling) {
        // The verdict rests on the MWU detection alone.
        if (res.throughput.valid) {
          propose(p_margin(res.throughput.p_value, cfg.throughput.alpha, true));
        }
      } else if (res.loss.sizes_tested > 0) {
        // Losing (sizes_correlated - required + 1) sizes undoes the
        // aggregation; the k weakest correlated sizes are the flip path.
        const std::size_t k = res.loss.sizes_correlated >= required
                                  ? res.loss.sizes_correlated - required + 1
                                  : 1;
        for (double m : kth_size_margin(true, k)) propose(m);
      }
    } else if (res.verdict == Verdict::NoEvidence && res.confirmation_passed) {
      // Either detector firing would flip the verdict to evidence.
      if (throughput_ran && res.throughput.valid) {
        propose(p_margin(res.throughput.p_value, cfg.throughput.alpha,
                         res.throughput.common_bottleneck));
      }
      if (res.loss.sizes_tested > 0 && required > res.loss.sizes_correlated) {
        const std::size_t k = required - res.loss.sizes_correlated;
        for (double m : kth_size_margin(false, k)) propose(m);
      }
    } else if (res.verdict == Verdict::NoEvidence) {
      // Confirmation failed: every failing path must flip, so the farthest
      // failing confirmation binds. Negative margins (a secondary gate
      // held the bit at the boundary) clamp to zero distance.
      double worst = 0.0;
      bool any = false;
      for (const DecisionEntry& e : tr.detectors) {
        if (e.detector.rfind("confirmation.", 0) != 0 || e.outcome) continue;
        const double m = e.margin < 0.0 ? 0.0 : e.margin;
        if (!any || m > worst) worst = m;
        any = true;
      }
      if (any) propose(worst);
    }
    // Inconclusive: the session measured nothing; no margin to report.
    tr.verdict_margin = has_margin ? margin : 0.0;
    tr.has_verdict_margin = has_margin;
  };

  // Input validation (degraded-upload hardening). The four simultaneous
  // measurements are the ones a faulty session can damage; scrub lazily so
  // a clean run never copies.
  const netsim::ReplayMeasurement* p1o = &input.p1_original;
  const netsim::ReplayMeasurement* p2o = &input.p2_original;
  const netsim::ReplayMeasurement* p1i = &input.p1_inverted;
  const netsim::ReplayMeasurement* p2i = &input.p2_inverted;
  netsim::ReplayMeasurement scrubbed[4];
  const netsim::ReplayMeasurement** sims[4] = {&p1o, &p2o, &p1i, &p2i};
  bool scrub_engaged = false;
  for (int i = 0; i < 4; ++i) {
    if (!needs_scrub(**sims[i])) continue;
    scrubbed[i] = **sims[i];
    scrub(scrubbed[i]);
    *sims[i] = &scrubbed[i];
    if (!scrub_engaged) engage("scrub");
    scrub_engaged = true;
  }
  const bool any_empty =
      unusable(*p1o) || unusable(*p2o) || unusable(*p1i) || unusable(*p2i);
  if (any_empty) note(InconclusiveReason::EmptyMeasurement);

  // Desynchronized loss pair (e.g. a skewed server clock): trim the two
  // original measurements to their overlapping window so Alg. 1's bins
  // stay aligned. A clean back-to-back start differs by ~5 ms and never
  // trips this.
  const netsim::ReplayMeasurement* loss1 = p1o;
  const netsim::ReplayMeasurement* loss2 = p2o;
  netsim::ReplayMeasurement trim1, trim2;
  bool loss_testable = !any_empty;
  if (loss_testable &&
      std::llabs(p1o->start - p2o->start) > kDesyncTolerance) {
    res.degraded = true;
    const Time lo = std::max(p1o->start, p2o->start);
    const Time hi = std::min(p1o->end, p2o->end);
    const Time longest = std::max(p1o->duration(), p2o->duration());
    if (hi - lo < static_cast<Time>(kMinOverlapFraction *
                                    static_cast<double>(longest))) {
      note(InconclusiveReason::NonOverlappingMeasurements);
      loss_testable = false;
    } else {
      engage("desync_trim");
      trim1 = trimmed(*p1o, lo, hi);
      trim2 = trimmed(*p2o, lo, hi);
      loss1 = &trim1;
      loss2 = &trim2;
    }
  }

  // Operation 3 (§3.1): differentiation confirmation on both paths, using
  // WeHe's own throughput-based detector. Unless *both* paths
  // differentiated, WeHeY reports no evidence.
  res.p1_confirmation = detect_differentiation(*p1o, *p1i, cfg.wehe);
  res.p2_confirmation = detect_differentiation(*p2o, *p2i, cfg.wehe);
  res.confirmation_passed = res.p1_confirmation.differentiation &&
                            res.p2_confirmation.differentiation;
  if (any_empty) {
    // Confirmation against a blank series is vacuous either way (zero-filled
    // throughput samples "differ" from anything): the session measured
    // nothing, which is not the same as measuring and finding nothing.
    res.verdict = Verdict::Inconclusive;
    res.status = Status::insufficient_data(
        std::string("localize: ") + to_string(res.inconclusive_reason));
    finish_trace();
    return res;
  }
  if (!res.confirmation_passed) {
    LOG_DEBUG("localizer: differentiation not confirmed on both paths");
    finish_trace();
    return res;
  }

  // Operation 4a: throughput comparison — per-client throttling check.
  const auto x = input.p0_original.throughput_samples(cfg.wehe.intervals);
  const auto y1 = p1o->throughput_samples(cfg.wehe.intervals);
  const auto y2 = p2o->throughput_samples(cfg.wehe.intervals);
  const auto y = aggregate_samples(y1, y2);
  res.throughput =
      throughput_comparison(x, y, input.t_diff_history, rng, cfg.throughput);
  throughput_ran = true;
  if (res.throughput.common_bottleneck) {
    res.verdict = Verdict::EvidenceWithinTargetArea;
    res.mechanism = Mechanism::PerClientThrottling;
    finish_trace();
    return res;
  }
  if (res.degraded && !res.throughput.valid &&
      input.t_diff_history.size() < kMinTDiff) {
    // Only worth flagging on damaged inputs: with clean measurements a
    // short history leaves the loss detector fully able to decide.
    note(InconclusiveReason::ShortTDiffHistory);
    res.trace.degradations.emplace_back("short_t_diff");
  }

  // Operation 4b: loss-trend correlation — collective throttling check.
  res.base_rtt_used =
      input.base_rtt > 0 ? input.base_rtt
                         : estimate_base_rtt(*loss1, *loss2, kFallbackRtt);
  LossCorrelationConfig loss_cfg = cfg.loss;
  if (res.degraded && loss_testable) {
    // Shrink the Alg. 1 sweep so every interval size still fits a
    // meaningful number of intervals into the (possibly trimmed) window.
    // Clean 45 s / 35 ms windows fit 50-RTT intervals with room to spare,
    // so this only engages on genuinely shortened measurements.
    const Time span = std::min(loss1->duration(), loss2->duration());
    const auto cap = static_cast<int>(
        span / (res.base_rtt_used *
                static_cast<Time>(kMinIntervalsPerSize)));
    if (cap < loss_cfg.max_interval_rtts) {
      loss_cfg.max_interval_rtts = cap;
      res.trace.degradations.emplace_back("shrunk_sweep");
      if (cap < loss_cfg.min_interval_rtts) {
        note(InconclusiveReason::InsufficientLossIntervals);
        loss_testable = false;
      }
    }
  }
  if (loss_testable) {
    res.loss =
        loss_trend_correlation(*loss1, *loss2, res.base_rtt_used, loss_cfg);
    if (res.degraded && res.loss.sizes_valid == 0) {
      note(InconclusiveReason::InsufficientLossIntervals);
    }
  }
  if (res.loss.common_bottleneck) {
    res.verdict = Verdict::EvidenceWithinTargetArea;
    res.mechanism = Mechanism::CollectiveThrottling;
    finish_trace();
    return res;
  }

  // Degraded inputs and neither detector validly ran: the session measured
  // nothing, which is different from having measured and found nothing.
  if (res.degraded && !res.throughput.valid && res.loss.sizes_valid == 0) {
    if (res.inconclusive_reason == InconclusiveReason::None) {
      res.inconclusive_reason = InconclusiveReason::InsufficientLossIntervals;
    }
    res.verdict = Verdict::Inconclusive;
    res.status = Status::insufficient_data(
        std::string("localize: ") + to_string(res.inconclusive_reason));
  }
  finish_trace();
  return res;
}

}  // namespace wehey::core
