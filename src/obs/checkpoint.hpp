// Sweep checkpoint journal ("wehey.sweep_checkpoint.v1"): crash-safe
// resume for long grid sweeps.
//
// The journal is an append-only JSONL file. After every completed run the
// sweep driver, obs::ObservedSweep (sweep.hpp), appends one line
//
//   {"schema": "wehey.sweep_checkpoint.v1", "sweep": "<sweep name>",
//    "run": "<unique run id>", "cell": "<grid cell>", "seed": N,
//    "index": N, "report": "<serialized RunReport, as a JSON string>"}
//
// and flushes it, so a kill -9 loses at most the run in flight. On resume
// ObservedSweep loads the journal, reads every embedded report back once
// with RunReport::from_json, skips the runs it could read, and absorbs
// their reports *in run-index order* through the same path as a live
// run. The embedded string preserves the RunReport's exact bytes and
// from_json is the exact inverse of to_json, so a killed-and-resumed
// sweep produces a sweep report byte-identical to an uninterrupted one, at
// any WEHEY_THREADS. A journaled report it cannot read (one an older
// build wrote, tagged with an older run-report version) is not a
// completed run: that run executes again. The journal itself stays
// agnostic of the embedded bytes.
//
// A torn trailing line (the write the kill interrupted) is expected and
// silently dropped; the run it described simply re-executes. The loader
// (and so `wehey_cli inspect`) accepts only lines tagged with this
// version; tests/test_supervisor.cpp covers the round trip and the torn
// line, tests/test_sweep.cpp the stale entry.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace wehey::obs {

/// One journaled run.
struct CheckpointEntry {
  std::string run;          ///< unique run id within the sweep
  std::string cell;         ///< grid-cell label; may be empty
  std::uint64_t seed = 0;
  std::uint64_t index = 0;  ///< position in the sweep's run order
  std::string report_json;  ///< the RunReport's exact serialized bytes
};

/// Appends journal lines, one fflush'd line per completed run.
class CheckpointWriter {
 public:
  CheckpointWriter() = default;
  ~CheckpointWriter() { close(); }
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Open `path` for appending (created when missing). `sweep` is stamped
  /// into every line. Returns false on I/O error.
  bool open(const std::string& path, const std::string& sweep);
  bool is_open() const { return file_ != nullptr; }

  /// Append one entry and flush. No-op when not open.
  void append(const CheckpointEntry& entry);

  void close();

 private:
  std::FILE* file_ = nullptr;
  std::string sweep_;
};

/// A loaded journal: entries in file order, keyed by run id.
class CheckpointJournal {
 public:
  /// Parse the journal at `path`. A missing file yields an empty journal
  /// (and returns true): "nothing completed yet" is a valid resume state.
  /// A torn trailing line is dropped; reading stops there. Returns false
  /// only on a malformed line that is not the last one (with `error` set
  /// when non-null).
  static bool load(const std::string& path, CheckpointJournal& out,
                   std::string* error = nullptr);

  /// The journaled entry for `run_id`, or nullptr. Duplicate run ids keep
  /// the last line (a re-run supersedes its predecessor).
  const CheckpointEntry* find(const std::string& run_id) const;

  const std::vector<CheckpointEntry>& entries() const { return entries_; }
  const std::string& sweep() const { return sweep_; }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<CheckpointEntry> entries_;
  std::map<std::string, std::size_t> by_run_;
  std::string sweep_;
};

}  // namespace wehey::obs
