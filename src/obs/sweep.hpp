// ObservedSweep: the one owner of a process's run artifacts. Every bench
// binary and every wehey_cli command opens one first thing; grid sweeps
// (the paper-table benches, `wehey_cli sweep`) also feed each of their
// runs through absorb().
//
// The constructor reads the obs environment, one variable per artifact,
// and binds a run-wide Recorder (metrics, plus a timeline when tracing) to
// the calling thread for the object's lifetime whenever a trace or a
// report is asked for:
//   WEHEY_TRACE=path   — the timeline, written as Chrome-trace JSON at
//                        `path`,
//   WEHEY_REPORT_DIR=dir — every report the process has: its own
//                        "<dir>/<name>.report.json", one
//                        "<dir>/<run>.report.json" per absorbed run, and the
//                        aggregated wehey.sweep_report.v2
//                        "<dir>/<name>.sweep.json" once a run was absorbed,
//   WEHEY_REPORT=path  — the process's own RunReport only, at `path` (wins
//                        over WEHEY_REPORT_DIR for that one file),
//   WEHEY_CHECKPOINT=path — journal every absorbed run (checkpoint.hpp); a
//                        journal already at `path` makes this a resume,
//   WEHEY_RUNTIME_REPORT / WEHEY_PROGRESS — the wall-clock sidecar and the
//                        progress meter (runtime.hpp).
// A path variable that is unset, empty or "0" is off (env_path). With all
// of them off this is a few getenv calls and nothing else. finish(), or
// the destructor, writes the artifacts; a binary returns finish()'s
// result so that a failed write fails the process. Every status line goes
// to stderr, so stdout carries only what the caller prints.
//
// Resume. A journaled run whose report RunReport::from_json reads back is
// completed(): the caller does not execute it but still absorb()s it, in
// the same order as a live run, and absorb() treats the read-back report
// exactly as a live one. A journaled report it cannot read (a journal
// from an older build) is not a completed run; that run executes again. A
// resumed sweep reproduces the uninterrupted sweep report, per-run
// reports, progress tallies, cell_audit(), and every tally the caller
// derives from the reports absorb() returns. The process's own report
// metrics and the trace cover only the runs executed in this process.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "obs/aggregate.hpp"
#include "obs/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "obs/runtime.hpp"

namespace wehey::obs {

class ObservedSweep {
 public:
  /// `name` names the sweep report, the journal, the progress meter, the
  /// runtime sidecar, and the process's own report.
  explicit ObservedSweep(std::string name);
  ~ObservedSweep() { finish(); }
  ObservedSweep(const ObservedSweep&) = delete;
  ObservedSweep& operator=(const ObservedSweep&) = delete;

  const std::string& name() const { return name_; }

  /// The process's own RunReport. Clearing its `run` writes none (a CLI
  /// command that reports nothing).
  RunReport& report() { return report_; }

  /// Total runs the sweep will absorb, for the progress meter's ETA.
  void expect_runs(std::size_t total) { meter_.expect(total); }

  /// Journal to `path` instead of WEHEY_CHECKPOINT. Only with `resume` do
  /// the runs already journaled there count as completed. Returns false,
  /// with `error` set, on a corrupt journal or one that cannot be opened.
  bool checkpoint(const std::string& path, bool resume, std::string* error);

  /// Write the sweep report to `path` ("" = stdout) instead of
  /// WEHEY_REPORT_DIR, even when no run was absorbed.
  void sweep_to(std::string path) { sweep_out_ = std::move(path); }

  /// Whether `run_id` was completed by the sweep this one resumes. Such a
  /// run must not execute; absorb() takes its journaled report instead.
  bool completed(const std::string& run_id) const {
    return journaled_.count(run_id) > 0;
  }

  /// Absorb one run, live or journaled, into the sweep report, its
  /// per-run report file, the journal, the progress meter and the own
  /// report's injection tally. `run_id` is the run's unique name; `live`
  /// and `live_metrics` are its report and registry (ignored when the run
  /// is completed(): its journaled report stands in). Call in a
  /// deterministic order: the journal records it as the run index.
  /// Returns the absorbed report: `live` itself, or the journaled report,
  /// which lives as long as the sweep.
  const RunReport& absorb(const std::string& run_id, const RunReport& live,
                          const MetricsRegistry* live_metrics);

  /// The audit counts absorbed so far into sweep cell `cell`.
  AuditTally cell_audit(const std::string& cell) const {
    return aggregator_.cell_audit(cell);
  }

  /// Write the trace, the reports and the runtime sidecar. Runs once; the
  /// destructor calls it. Returns false if an artifact, or a per-run
  /// report absorb() wrote, failed to write.
  bool finish();

 private:
  /// A completed run of the journal this sweep resumes, read back once
  /// at load.
  struct JournaledRun {
    std::string json;  ///< the report's exact bytes, for its per-run file
    RunReport report;
    MetricsRegistry metrics;
  };

  std::string name_;
  std::string trace_path_;
  std::unique_ptr<Recorder> recorder_;  ///< null when everything is off
  ScopedRecorder bind_;
  std::optional<std::string> sweep_out_;  ///< sweep_to(); "" = stdout
  std::string run_dir_;                   ///< WEHEY_REPORT_DIR
  SweepAggregator aggregator_;
  ProgressMeter meter_;
  RunReport report_;
  std::map<std::string, JournaledRun> journaled_;
  CheckpointWriter journal_;
  std::uint64_t next_index_ = 0;
  bool run_write_failed_ = false;  ///< a per-run report failed to write
  bool finished_ = false;
};

}  // namespace wehey::obs
