// The observability entry point: a Recorder bundles one MetricsRegistry
// and one Timeline, and a thread-local *scope* makes the active recorder
// reachable from instrumented code anywhere in the stack without plumbing
// a pointer through every layer.
//
// Threading/determinism model:
//
//   * a Recorder is owned by one execution context at a time — no locks,
//     no atomics on the hot path;
//   * the parallel engine (parallel_map) gives every trial its own child
//     Recorder, bound around the trial body on whichever worker runs it,
//     and absorbs the children into the parent *in index order* after the
//     loop — so merged metrics and traces are bit-identical across
//     WEHEY_THREADS=1/4/16;
//   * when no recorder is bound (the default), every instrumentation hook
//     is a thread-local load + branch — near-zero cost. Building with
//     -DWEHEY_OBS=OFF compiles the hooks out entirely (Recorder::current()
//     becomes a constant nullptr and guarded code folds away).
//
// A process binds its run-wide recorder through ObservedSweep (sweep.hpp),
// which reads the observability environment (WEHEY_TRACE, WEHEY_REPORT,
// WEHEY_REPORT_DIR) and writes the trace and the reports when the process
// ends.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace wehey::obs {

/// Compile-time master switch (CMake option WEHEY_OBS, default ON).
#ifdef WEHEY_OBS_DISABLED
inline constexpr bool kObsCompiled = false;
#else
inline constexpr bool kObsCompiled = true;
#endif

class Recorder {
 public:
  Recorder(bool metrics_on, bool trace_on)
      : metrics_on_(metrics_on), trace_on_(trace_on) {}

  bool metrics_on() const { return metrics_on_; }
  bool trace_on() const { return trace_on_; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }

  /// A child with the same enablement, for one trial of a parallel loop.
  Recorder child() const { return Recorder(metrics_on_, trace_on_); }

  /// Fold a finished child back in: metrics merge, timeline events append
  /// under the next pid track (named `track` if non-empty). Call in a
  /// deterministic order (the parallel engine absorbs by trial index).
  void absorb(Recorder&& c, const std::string& track = {});

  /// The recorder bound to the current thread, or nullptr. All
  /// instrumentation is gated on this.
  static Recorder* current();

 private:
  bool metrics_on_ = false;
  bool trace_on_ = false;
  MetricsRegistry metrics_;
  Timeline timeline_;
};

/// Binds a recorder to the current thread for a lexical scope; restores
/// the previous binding on destruction. Binding nullptr disables
/// observation inside the scope.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(Recorder* r);
  ~ScopedRecorder();
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  Recorder* prev_;
};

}  // namespace wehey::obs
