// Span/event tracing keyed on *simulated* time.
//
// A Timeline records three Chrome-trace-format event shapes:
//
//   * complete spans ("ph":"X") — a named stage with a sim-time start and
//     duration (the session pipeline records one per stage: wehe test,
//     topology query, simultaneous replays, gathering, analysis);
//   * instants ("ph":"i") — point events (retries, backoff, fault hits);
//   * counter samples ("ph":"C") — a named numeric series over sim time
//     (event-heap depth, queue backlog).
//
// Timestamps are simulated nanoseconds rendered as microseconds (Chrome's
// native unit), so a trace opens directly in chrome://tracing or Perfetto.
// Like MetricsRegistry, a Timeline is single-owner on the hot path and
// aggregation happens by absorbing child timelines in a deterministic
// order; each absorbed child gets the next process id ("pid"), so one
// trace file shows every trial/phase as its own process track and the
// bytes are identical regardless of WEHEY_THREADS.
//
// Events stay in memory until the trace is rendered: a traced run records
// one heap-depth sample per 8,192 dispatches plus a few spans per phase,
// so even a traced WEHEY_FULL=1 Table-1 grid holds only ~36k events.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace wehey::obs {

struct TimelineEvent {
  enum class Kind : std::uint8_t { Span, Instant, Counter };

  Kind kind = Kind::Instant;
  Time at = 0;        ///< sim time (span: start)
  Time duration = 0;  ///< span only
  std::int32_t pid = 0;
  std::int32_t tid = 0;
  std::string name;
  std::string category;
  /// Pre-rendered JSON object body for "args" (no braces), e.g.
  /// "\"attempt\": 2"; empty = no args. Counter samples store the value
  /// here as "\"value\": <v>".
  std::string args;
};

class Timeline {
 public:
  /// A span covering [start, end] of simulated time.
  void span(std::string name, std::string category, Time start, Time end,
            std::int32_t tid = 0, std::string args = {});
  /// A point event.
  void instant(std::string name, std::string category, Time at,
               std::int32_t tid = 0, std::string args = {});
  /// One sample of a numeric series.
  void counter(std::string name, Time at, double value, std::int32_t tid = 0);

  /// Label a pid (emitted as Chrome process_name metadata).
  void name_track(std::int32_t pid, std::string name);

  /// Append `child`'s events under fresh pids: child pid p becomes
  /// next_pid + p. Deterministic given a deterministic absorb order.
  void absorb(Timeline&& child);

  /// Every recorded event, in recording order.
  const std::vector<TimelineEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  /// Number of pid tracks this timeline spans (>= 1 once non-empty).
  std::int32_t pid_count() const { return pid_count_; }

  /// Chrome trace format: {"traceEvents": [...]} with stable field order.
  std::string chrome_json() const;

 private:
  std::vector<TimelineEvent> events_;
  std::vector<std::pair<std::int32_t, std::string>> track_names_;
  std::int32_t pid_count_ = 1;
};

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(const std::string& s);

}  // namespace wehey::obs
