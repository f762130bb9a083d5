// Offline analyzer behind `wehey_cli inspect <report|trace|sweep>`, and
// the only reader of the artifacts the obs layer emits: RunReports
// (kRunReportSchema), sweep aggregates (kSweepReportSchema), checkpoint
// journals (kSweepCheckpointSchema), runtime sidecars
// (kRuntimeReportSchema) and Chrome-trace timelines. Each reader accepts
// exactly the version this build writes; anything else is rejected.
//
// Renders human-readable summaries: per-stage latency and self-time
// profiles, the p50/p90/p99 of each histogram (from the report's
// "percentiles" section), per-flow RTT/loss tables, queue-residency and
// drop-by-reason breakdowns, and link utilization. Optional sections
// (fault-free runs, runs without a ground truth) may be absent: the
// renderer skips what is missing instead of failing.
//
// The JSON model is deliberately tiny (no external dependency): objects
// preserve key order, numbers are doubles — exactly what the writers in
// this directory produce.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace wehey::obs {

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  double num_or(double fallback) const {
    return type == Type::Number ? number : fallback;
  }
};

/// Strict-enough recursive-descent parse of `text` (the subset the obs
/// writers emit: null/bool/number/string/array/object, \uXXXX escapes
/// passed through verbatim). Returns false and fills `error` on bad input.
bool json_parse(const std::string& text, JsonValue& out,
                std::string* error = nullptr);

/// Schema tag is exactly kRunReportSchema.
bool is_run_report(const JsonValue& doc);
bool is_chrome_trace(const JsonValue& doc);
/// Schema tag is exactly kRuntimeReportSchema (the engine-telemetry
/// sidecar — see obs/runtime.hpp).
bool is_runtime_report(const JsonValue& doc);

void render_report(const JsonValue& doc, std::FILE* out);
void render_sweep(const JsonValue& doc, std::FILE* out);
void render_trace(const JsonValue& doc, std::FILE* out);
/// Worker table, scheduler-efficiency metrics and latency percentiles of
/// a runtime sidecar.
void render_runtime(const JsonValue& doc, std::FILE* out);

/// Slurp a file; false on I/O error.
bool read_file(const std::string& path, std::string& out);

/// Convenience: read `path`, detect report vs trace, render to `out`.
/// Returns false (with a message on stderr) on parse or format errors.
bool inspect_file(const std::string& path, std::FILE* out);

}  // namespace wehey::obs
