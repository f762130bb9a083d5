// Offline analyzer behind `wehey_cli inspect <report|trace|sweep>`: it
// renders RunReports (read back through RunReport::from_json), sweep
// aggregates (kSweepReportSchema), checkpoint journals
// (kSweepCheckpointSchema), runtime sidecars (kRuntimeReportSchema) and
// Chrome-trace timelines. Each reader accepts exactly the version this
// build writes; anything else is rejected.
//
// Renders human-readable summaries: per-stage latency and self-time
// profiles, the p50/p90/p99 of each histogram, per-flow RTT/loss tables,
// queue-residency and drop-by-reason breakdowns, and link utilization.
// Optional sections (fault-free runs, runs without a ground truth) may be
// absent: the renderer skips what is missing instead of failing.
//
// The JSON model is deliberately tiny (no external dependency): objects
// preserve key order, numbers are doubles — exactly what the writers in
// this directory produce.
#pragma once

#include <cmath>
#include <cstdio>
#include <limits>
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
  /// Object member, or a shared null value when absent or not an object:
  /// `.num_or()`, `.str`, `.boolean`, `.array` and `.object` then read as
  /// empty.
  const JsonValue& at(const std::string& key) const;
  double num_or(double fallback) const {
    return type == Type::Number ? number : fallback;
  }
  /// This value as an integer of type T; null (a missing member) reads as
  /// 0. False when it is anything but a whole number in T's range, so no
  /// reader casts an out-of-range double.
  template <typename T>
  bool integer(T& out) const {
    using Limits = std::numeric_limits<T>;
    if (type == Type::Null) {
      out = 0;
      return true;
    }
    if (type != Type::Number || number != std::trunc(number) ||
        !(number >= static_cast<double>(Limits::min())) ||
        !(number < std::ldexp(1.0, Limits::digits))) {
      return false;
    }
    out = static_cast<T>(number);
    return true;
  }
};

/// Strict-enough recursive-descent parse of `text` (the subset the obs
/// writers emit: null/bool/number/string/array/object, \uXXXX escapes
/// passed through verbatim). Returns false and fills `error` on bad input.
bool json_parse(const std::string& text, JsonValue& out,
                std::string* error = nullptr);

/// Schema tag is exactly kRunReportSchema.
bool is_run_report(const JsonValue& doc);
/// Schema tag is exactly kRuntimeReportSchema (the engine-telemetry
/// sidecar — see obs/runtime.hpp).
bool is_runtime_report(const JsonValue& doc);

/// Slurp a file; false on I/O error.
bool read_file(const std::string& path, std::string& out);

/// Convenience: read `path`, detect report vs trace, render to `out`.
/// Returns false (with a message on stderr) on parse or format errors.
bool inspect_file(const std::string& path, std::FILE* out);

}  // namespace wehey::obs
