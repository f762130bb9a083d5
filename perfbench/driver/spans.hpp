// In-memory spans for the benchmark's traced mode.
//
// The driver times calls into each layer's public functions from outside
// the library. A span records one such call: its name ("<layer>.<call>"),
// wall start and end, the run (WeHeY test) it belongs to, and its parent.
// The parent is the call that does this work inside the library, e.g. a
// re-timed `trace.background` has the `experiments.phase` that generates
// that background as its parent, even though the driver times the two one
// after the other. A span's self time is its duration minus its
// children's, so each layer's self time is the part of the test that no
// deeper layer accounts for.
//
// Every run owns one SpanLog and records into it from a single thread;
// logs are only merged after the parallel pass has joined.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock (steady_clock), nanoseconds.
std::uint64_t now_ns();

struct Span {
  std::string name;
  std::string run;
  int parent = -1;  ///< index into the same log; -1 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class SpanLog {
 public:
  /// Times its enclosing block as one span of `log`.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, int parent = -1)
        : log_(log), id_(log.begin(name, parent)) {}
    ~Scope() { log_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    SpanLog& log_;
    int id_;
  };

  SpanLog() = default;
  explicit SpanLog(std::string run) : run_(std::move(run)) {}

  int begin(const char* name, int parent);
  void end(int id);

  const std::string& run() const { return run_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string run_;
  std::vector<Span> spans_;
};

/// Per-span self time: duration minus the summed durations of its
/// children (same log, by parent index), floored at zero.
std::vector<double> self_ms(const std::vector<Span>& spans);

/// Write every log as one Chrome trace-event file (one track per log,
/// timestamps relative to the earliest span). False on I/O error.
bool write_trace_file(const std::string& path,
                      const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
