// SweepAggregator: deterministic merge of per-run RunReports into one
// "wehey.sweep_report.v2" JSON document — the sweep-scale counterpart of
// MetricsRegistry::merge.
//
//   {
//     "schema": "wehey.sweep_report.v2",
//     "sweep": "<bench or pipeline name>",
//     "runs": N,
//     "fault_plans": {"(none)": N, "replay-abort": N, ...},
//     "verdicts": {"<verdict>": N, ...},
//     "reasons": {"<reason>": N, ...},
//     "injection": {"<fault kind>": N, ..., "total": N},
//     "values": {"<name>": {"count", "min", "max", "mean", "sum",
//                            "p50", "p90", "p99"}, ...},
//     "stages": {"<stage>": {<same summary over per-run stage ms>}, ...},
//     "cells": {"<cell>": {"runs": N, "verdicts": {...},
//                           "values": {<name>: <summary>}}, ...},
//     "quarantine": {"threshold": N, "cells": {"<cell>":
//                     {"poisoned_runs": N, "reasons": {...}}, ...}},
//     "knife_edge": {"margin_threshold": X, "cells": {"<cell>":
//                     {"min_margin": X, "runs_below": N}, ...}},
//     "audit": {"grid": {"tp", "fp", "fn", "tn", "skipped",
//                         "accuracy", "precision", "recall",
//                         "mismatch_reasons": {...}},
//               "cells": {"<cell>": {<same counts + ratios>,
//                          "knife_edge": bool}, ...}},
//                                  // absent unless some run was audited
//     "metrics": {"counters": {...}, "gauges": {name: {"min", "max"}},
//                 "histograms": {<registry layout>}}
//   }
//
// v2 drops v1's "profile" (the run reports' profiles, gone in run report
// v6), "cell_percentiles" (quantiles of the per-cell value means) and
// "percentiles" (`wehey_cli inspect` derives them from the merged
// histogram bins).
//
// This sketch is the format's reference; tests/test_sweep.cpp pins the
// key sets of the top level, a cell and the audit block.
//
// Determinism contract (same as the rest of src/obs): the serialized
// sweep report is a pure function of the *set* of absorbed runs — byte
// identical across WEHEY_THREADS and across absorb orders. Integer
// tallies are associative; double-valued samples are collected per run
// and sorted numerically before any summation, so floating-point
// non-associativity cannot leak into the output. Gauge "last" values
// (inherently order-dependent) are dropped; only min/max survive.
//
// Every run enters through add_run, from a RunReport and its registry:
// a live run's own, or one RunReport::from_json read back from a per-run
// report file (`wehey_cli merge`) or a checkpoint journal line.
// from_json is the exact inverse of to_json, so a merged or resumed sweep
// absorbs the same values as a live one and the sweep files are
// byte-identical — CI diffs the in-process sweep against `wehey_cli
// merge` over the per-run files. obs::ObservedSweep (sweep.hpp) drives
// add_run for every bench and wehey_cli sweep, and the knife_edge block's
// threshold is the constant kKnifeEdgeMargin.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/inspect.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace wehey::obs {

/// The run-level decision margin (RunReport "decision.margin") is
/// absorbed into the per-cell value blocks under this name, so margin
/// distributions get the same sorted-sample summaries as every other
/// value — and the "knife_edge" block is derived from them.
inline constexpr char kDecisionMarginValue[] = "decision_margin";

/// |margin| below which a cell counts as knife-edge: its verdict sits
/// close enough to a decision boundary that background-traffic
/// realizations (e.g. packet vs fluid) can legitimately flip it. The sweep
/// report's knife_edge block, the audit's "sub-margin-miss" grading and
/// the progress meter share it.
inline constexpr double kKnifeEdgeMargin = 0.05;

/// Confusion-matrix counts folded from per-run "audit" sections
/// (RunReport v6). Purely integer tallies, so the fold is associative and
/// the rendered ratios are a function of the absorbed run set.
struct AuditTally {
  std::uint64_t tp = 0;
  std::uint64_t fp = 0;
  std::uint64_t fn = 0;
  std::uint64_t tn = 0;
  std::uint64_t skipped = 0;
  std::map<std::string, std::uint64_t> mismatch_reasons;
  bool any() const { return tp + fp + fn + tn + skipped > 0; }
};

class SweepAggregator {
 public:
  explicit SweepAggregator(std::string sweep_name)
      : sweep_(std::move(sweep_name)) {}

  /// Absorb one run. `metrics` is the run's registry (may be null). The
  /// cell tally uses `report.cell`.
  void add_run(const RunReport& report, const MetricsRegistry* metrics);

  std::size_t runs() const { return runs_; }
  /// The audit counts of `cell`'s runs so far (all zero for a cell with no
  /// audited run).
  AuditTally cell_audit(const std::string& cell) const;

  /// Serialize the aggregate (see the schema sketch above).
  std::string to_json() const;

 private:
  /// Per-metric sample set; all statistics are derived from the sorted
  /// samples at render time, making them independent of absorb order.
  struct Samples {
    std::vector<double> values;
  };

  struct GaugeAgg {
    bool seen = false;
    double min = 0.0;
    double max = 0.0;
  };

  /// Mirror of Histogram for merged cross-run state; per-run sums stay
  /// unsummed until render (see Samples).
  struct HistAgg {
    double lo = 0.0;
    double hi = 1.0;
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    std::vector<std::uint64_t> bins;
    Samples run_sums;  ///< one entry per contributing non-empty run
  };

  struct CellAgg {
    std::uint64_t runs = 0;
    std::map<std::string, std::uint64_t> verdicts;
    std::map<std::string, Samples> values;
    AuditTally audit;
    /// Runs whose verdict was the budget-exhausted (crash-equivalent)
    /// outcome, with their reason strings. A cell with
    /// >= kQuarantineThreshold poisoned runs is quarantined in the
    /// report's "quarantine" block; the sweep itself keeps going.
    std::uint64_t poisoned = 0;
    std::map<std::string, std::uint64_t> poison_reasons;
  };

  std::string sweep_;
  std::size_t runs_ = 0;
  std::map<std::string, std::uint64_t> fault_plans_;
  std::map<std::string, std::uint64_t> verdicts_;
  std::map<std::string, std::uint64_t> reasons_;
  std::map<std::string, std::int64_t> injection_;
  AuditTally audit_;
  std::map<std::string, Samples> values_;
  std::map<std::string, Samples> stages_;
  std::map<std::string, CellAgg> cells_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, GaugeAgg> gauges_;
  std::map<std::string, HistAgg> histograms_;
};

// ---------------------------------------------------------------------------
// Baseline comparison (`wehey_cli compare`, the perf-regression gate CI
// runs against the committed baselines).

struct CompareOptions {
  /// Default relative tolerance for numeric drift (|cand - base| /
  /// max(|base|, 1e-12) must stay <= tolerance; near-zero baselines fall
  /// back to the same bound taken absolutely).
  double tolerance = 0.05;
  /// Per-key overrides: first regex (std::regex, searched against the
  /// dotted key path) that matches wins.
  std::vector<std::pair<std::string, double>> key_tolerances;
  /// Key paths (regex) excluded from comparison entirely — wall-clock
  /// seconds, host-dependent throughput numbers, ...
  std::vector<std::string> ignore;
  /// Floors: the candidate value at every key matching the regex must be
  /// >= the given bound, independent of the baseline value (a stability
  /// or event-reduction floor); a regex that matches no number fails.
  std::vector<std::pair<std::string, double>> min_keys;
  /// Existence assertions: each regex must match at least one flattened
  /// candidate key (of any type) or the comparison fails. Guards CI gates
  /// against a renamed/removed section silently turning the gate into a
  /// no-op; ignored keys still count as matches.
  std::vector<std::string> require_keys;
};

struct CompareResult {
  bool ok = true;
  /// Human-readable, deterministic (key-sorted) failure lines.
  std::vector<std::string> failures;
  /// Non-fatal remarks (keys only present on one side, ...).
  std::vector<std::string> notes;
};

/// All flattened dotted key paths of `doc`, in sorted order — the exact
/// key space `compare_reports` matches its regexes against. Backs
/// `wehey_cli compare --list-keys`, for triaging require/min-key patterns
/// that match nothing and for deriving CI exemptions from a baseline.
std::vector<std::string> flatten_keys(const JsonValue& doc);

/// Diff `candidate` against `baseline`: both documents are flattened to
/// dotted key paths; numbers are compared with relative tolerance,
/// strings for equality. Keys present only in the baseline fail (a
/// metric disappeared); keys only in the candidate are notes (the schema
/// grew).
CompareResult compare_reports(const JsonValue& baseline,
                              const JsonValue& candidate,
                              const CompareOptions& options);

}  // namespace wehey::obs
