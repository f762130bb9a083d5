// RunReport: the machine-readable result of one run — a session, a wild
// test, or a whole bench binary. One shared schema
// ("wehey.run_report.v6", JSON) replaces the ad-hoc JSON each bench used
// to emit:
//
//   {
//     "schema": "wehey.run_report.v6",
//     "run": "<binary or pipeline name>",
//     "cell": "<grid-cell label, omitted when empty>",
//     "seed": 2,
//     "fault_plan": "<plan name or empty>",
//     "verdict": "<outcome string>",
//     "reason": "<machine-readable reason, empty when n/a>",
//     "decision": {"evaluated": true|false,
//                  "margin": X?,   // omitted when no verdict margin exists
//                  "detectors": [{"name": ..., "statistic": X,
//                                 "threshold": X, "margin": X,
//                                 "outcome": true|false,
//                                 "valid": true|false,
//                                 "rho": X?, "sigma_ms": X?}, ...],
//                  "aggregation": {...}?,   // Alg. 1 conservative count
//                  "degradations": ["scrub", ...]},
//     "ground_truth": {"differentiated": true|false,  // v5, optional
//                      "mechanism": "per-client-tbf" | "collective-tbf" |
//                                   "delayed-fixed-rate" | "per-flow-tbf" |
//                                   "none",
//                      "placement": "common-link" | "non-common-links" |
//                                   "none",
//                      "within_target_area": true|false,
//                      "rate_bps": X,           // 0 when no limiter
//                      "activation_bytes": N,   // 0 = immediate
//                      "sanity_check": true|false},
//     "audit": {"expected_positive": true|false,      // v5, optional
//               "observed_positive": true|false,
//               "classification": "tp"|"fp"|"fn"|"tn"|"skipped",
//               "mismatch_reason": "" | "budget-exhausted" |
//                                  "not-confirmed" |
//                                  "mechanism-mismatch" | "sub-margin-miss" |
//                                  "clear-miss" | "no-margin" |
//                                  "not-evaluated"},
//     "stages": [{"name": ..., "sim_start_us": ..., "sim_end_us": ...},
//                ...],
//     "values": {"<scalar name>": <number>, ...},
//     "injection": {"total": N, "<fault kind>": N, ...},
//     "metrics": {"counters": ..., "gauges": ..., "histograms": ...}
//   }
//
// v2 added "percentiles" (derived per non-empty histogram via
// histogram_quantile); v3 adds "profile" (per-stage self time: span
// duration minus enclosed child spans) and the optional "cell" grid
// label; v4 adds "decision" — the verdict's provenance (per-detector
// statistic / threshold / signed margin, the Alg. 1 aggregation count,
// engaged degradation paths, and the run-level verdict margin the sweep
// knife-edge gate aggregates). A run that never reached analysis (budget
// exhausted, session aborted before localize) carries an empty-but-valid
// block: {"evaluated": false, "detectors": [], "degradations": []}.
// v5 adds the optional "ground_truth" ledger (what the simulator actually
// configured — a pure function of the run's configuration, no RNG) and the
// derived "audit" section (verdict vs truth -> TP/FP/FN/TN with a
// machine-readable mismatch reason that cross-references the decision
// margin). Both are emitted only by runners that know their ground truth.
// v6 drops what readers recompute or what repeats other fields: v2's
// "percentiles" (inspect derives them from the histogram bins), v3's
// "profile" (the stages again, on the same sim clock) and each stage's
// "sim_ms" (its bounds' difference).
//
// This sketch is the format's reference. RunReport::from_json, its exact
// inverse, is the format's one reader: `wehey_cli inspect` and `merge` and
// a resuming ObservedSweep's journal all go through it, and it accepts
// only kRunReportSchema. tests/test_obs.cpp pins the key sets of a real
// session's report, tests/test_sweep.cpp the round trip.
//
// Determinism contract: every field is a pure function of the run's
// seeds, so the serialized report is byte-identical across WEHEY_THREADS.
// Wall-clock data goes to the runtime sidecar (runtime.hpp) instead.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "obs/metrics.hpp"

namespace wehey::obs {

struct JsonValue;

/// The report schema emitted by RunReport::to_json — the single source of
/// truth for the version string, and the only version readers accept.
inline constexpr char kRunReportSchema[] = "wehey.run_report.v6";
/// Schema of the aggregated sweep report (src/obs/aggregate.hpp).
inline constexpr char kSweepReportSchema[] = "wehey.sweep_report.v2";
/// Schema of one line of a sweep checkpoint journal
/// (src/obs/checkpoint.hpp).
inline constexpr char kSweepCheckpointSchema[] = "wehey.sweep_checkpoint.v1";

/// The verdict string every runner emits when the supervisor's per-trial
/// budget ended the run (src/parallel/supervisor.hpp). The sweep
/// aggregator's quarantine logic keys on it, so runners must use this
/// constant rather than their own spelling.
inline constexpr char kBudgetExhaustedVerdict[] = "budget exhausted";
/// Runs with this many budget-exhausted (or crash-equivalent) outcomes in
/// one cell quarantine the cell in the sweep report.
inline constexpr int kQuarantineThreshold = 2;

struct StageTiming {
  std::string name;
  Time sim_start = 0;
  Time sim_end = 0;
};

/// One row of the v4 "decision" section: a detector statistic, the
/// threshold it was compared against, and the signed normalized margin
/// (positive = the statistic supports the recorded outcome; |margin|
/// small = knife-edge). Mirrors core::DecisionEntry without depending on
/// core — emitters copy the fields across.
struct DecisionRow {
  std::string name;
  double statistic = 0.0;
  double threshold = 0.0;
  double margin = 0.0;
  bool outcome = false;
  bool valid = false;
  /// Loss-size rows also carry the correlation coefficient and interval
  /// size; has_rho gates both optional fields.
  bool has_rho = false;
  double rho = 0.0;
  double sigma_ms = 0.0;
};

/// The v4 "decision" section: the verdict's full evidence chain. A
/// default-constructed section serializes as the empty-but-valid block
/// required of runs that never reached analysis.
struct DecisionSection {
  bool evaluated = false;
  /// Run-level verdict margin — normalized distance to the nearest event
  /// that would flip the verdict; the sweep knife-edge gate aggregates
  /// this per cell. has_margin=false omits the field (Inconclusive or
  /// never-evaluated runs).
  bool has_margin = false;
  double margin = 0.0;
  std::vector<DecisionRow> detectors;
  /// Alg. 1 conservative aggregation (loss detector ran): correlated
  /// count vs (1 - fp) * tested.
  bool has_aggregation = false;
  std::uint64_t sizes_tested = 0;
  std::uint64_t sizes_correlated = 0;
  std::uint64_t sizes_valid = 0;
  double aggregation_threshold = 0.0;
  double aggregation_margin = 0.0;
  bool aggregation_outcome = false;
  std::vector<std::string> degradations;
};

// Canonical strings of the v5 "ground_truth" section. Emitters must use
// these constants; they are the section's only legal values.
inline constexpr char kMechanismPerClientTbf[] = "per-client-tbf";
inline constexpr char kMechanismCollectiveTbf[] = "collective-tbf";
inline constexpr char kMechanismDelayedFixedRate[] = "delayed-fixed-rate";
inline constexpr char kMechanismPerFlowTbf[] = "per-flow-tbf";
inline constexpr char kMechanismNone[] = "none";
inline constexpr char kPlacementCommonLink[] = "common-link";
inline constexpr char kPlacementNonCommonLinks[] = "non-common-links";
inline constexpr char kPlacementNone[] = "none";

/// The v5 "ground_truth" ledger: what the simulator actually configured
/// for this run. A pure function of the run's configuration — no RNG, no
/// measurement — so it is byte-identical across WEHEY_THREADS and
/// trivially reproducible from the run's seed. present=false omits the
/// section entirely (bench binaries without a scenario).
struct GroundTruthSection {
  bool present = false;
  /// A rate limiter exists somewhere on the client's paths.
  bool differentiated = false;
  /// kMechanism* string: what kind of throttler was installed.
  std::string mechanism = kMechanismNone;
  /// kPlacement* string: where relative to the two-path convergence point.
  std::string placement = kPlacementNone;
  /// The throttler sits at/behind the convergence point — i.e. inside the
  /// area WeHeY's verdict claims to localize to. NonCommonLinks
  /// configurations are differentiated but NOT within the target area.
  bool within_target_area = false;
  double rate_bps = 0.0;  ///< configured token rate; 0 = no limiter
  /// Bytes before a delayed throttler activates (ISP5); 0 = immediate.
  std::int64_t activation_bytes = 0;
  /// §5 sanity check: a third concurrent flow shares the limiter, so a
  /// per-client verdict is the WRONG answer even though the limiter is
  /// per-client by configuration.
  bool sanity_check = false;
};

/// The v5 "audit" section: the run's verdict judged against its ground
/// truth. Derived deterministically by classify_audit; present=false
/// omits the section (runs without a ground truth cannot be audited).
struct AuditSection {
  bool present = false;
  /// What a perfect localizer should have concluded for this run.
  bool expected_positive = false;
  /// What this run's verdict actually concluded.
  bool observed_positive = false;
  /// "tp" | "fp" | "fn" | "tn" | "skipped" (runs without a verdict the
  /// audit may score; excluded from accuracy ratios).
  std::string classification;
  /// Machine-readable reason when observed != expected (empty on match):
  /// "mechanism-mismatch" (verdict localized but the wrong throttling
  /// mechanism), "sub-margin-miss" (|decision margin| < kKnifeEdgeMargin
  /// — a knife-edge miss, flagged not failed), "clear-miss", "no-margin",
  /// "not-evaluated"; on a skipped run, its skip reason.
  std::string mismatch_reason;
};

// Skip reasons of classify_audit.
/// The supervisor's per-trial budget stopped the run before its verdict.
inline constexpr char kSkipBudgetExhausted[] = "budget-exhausted";
/// WeHe did not confirm differentiation on both paths; §6.2 leaves such
/// runs out of its FN and FP rates.
inline constexpr char kSkipNotConfirmed[] = "not-confirmed";

/// Classify a verdict against its ground truth. `observed_positive` is the
/// runner's success predicate (e.g. localized AND per-client mechanism for
/// the Table-1 wild tests); `mechanism_mismatch` marks a localized verdict
/// that named the wrong mechanism; a non-empty `skip_reason` (a kSkip*
/// constant) classifies the run as "skipped" with that reason. The
/// mismatch reason cross-references `decision`: a miss whose |margin| is
/// under kKnifeEdgeMargin is "sub-margin-miss" (knife-edge, flagged not
/// failed by the sweep gate). Pure function of its inputs — deterministic
/// across WEHEY_THREADS.
AuditSection classify_audit(const GroundTruthSection& truth,
                            bool observed_positive, bool mechanism_mismatch,
                            const std::string& skip_reason,
                            const DecisionSection& decision);

struct RunReport {
  std::string run;         ///< binary / pipeline name
  std::string cell;        ///< grid-cell label ("ISP1", "Zoom", ...); may be
                           ///< empty (omitted from the JSON)
  std::uint64_t seed = 0;
  std::string fault_plan;  ///< empty = fault-free
  std::string verdict;     ///< outcome string ("localized within ISP", ...)
  std::string reason;      ///< machine-readable refinement, may be empty
  /// v4: why the verdict is what it is. Always emitted; the default-
  /// constructed value is the empty-but-valid block.
  DecisionSection decision;
  /// v5: what the simulator configured (omitted while !present).
  GroundTruthSection ground_truth;
  /// v5: verdict vs ground truth (omitted while !present).
  AuditSection audit;
  std::vector<StageTiming> stages;
  /// Scalar results (retry counters, success rates, ...). Sorted on
  /// output.
  std::map<std::string, double> values;
  /// Per-fault-kind injection counts (fill with
  /// faults::InjectionStats::by_kind()); "total" is added on output.
  std::map<std::string, int> injection;

  void add_stage(std::string name, Time sim_start, Time sim_end) {
    stages.push_back({std::move(name), sim_start, sim_end});
  }

  /// Serialize; `metrics` (usually the run recorder's registry, may be
  /// null) is embedded as the "metrics" object.
  std::string to_json(const MetricsRegistry* metrics) const;

  /// The exact inverse of to_json: rebuild the report and its registry
  /// from a parsed document, so that to_json(&metrics) reproduces the
  /// document's bytes (a report written without a registry reads back
  /// with an empty one). A missing section reads as empty. Returns false,
  /// with `error` set, on a document of any other schema and on a stage
  /// or histogram entry to_json cannot have written.
  static bool from_json(const JsonValue& doc, RunReport& report,
                        MetricsRegistry& metrics,
                        std::string* error = nullptr);
};

/// The path an artifact variable (WEHEY_TRACE, WEHEY_REPORT,
/// WEHEY_REPORT_DIR, WEHEY_CHECKPOINT, WEHEY_RUNTIME_REPORT) names, or ""
/// when that artifact is off: the variable is unset, empty or "0".
std::string env_path(const char* name);

/// Resolve the report output path from the environment: WEHEY_REPORT
/// (exact path) wins over WEHEY_REPORT_DIR (directory; the file is named
/// "<run>.report.json"). Empty = reporting off.
std::string report_path_from_env(const std::string& run_name);

/// Resolve the sweep-report output path from WEHEY_REPORT_DIR: the file
/// is "<dir>/<run>.sweep.json". WEHEY_REPORT never names a sweep. Empty =
/// no sweep file.
std::string sweep_path_from_env(const std::string& run_name);

/// Write `json` to `path`. Returns false on any I/O error, including one
/// that only shows when the file is closed.
bool write_report_file(const std::string& path, const std::string& json);

}  // namespace wehey::obs
