// Engine runtime telemetry: a wall-clock profiler for the execution
// engine itself (thread pool, trial runners, allocator high-water marks)
// plus a live sweep progress meter.
//
// Everything in this header observes the *engine* on the *wall* clock —
// the opposite of every other obs component, which observes the
// *simulation* on the *sim* clock. Wall-clock data is inherently
// nondeterministic, so none of it may ever reach the byte-identical
// RunReport / sweep-report contract: the profiler serializes into its own
// `wehey.runtime_report.v1` sidecar (WEHEY_RUNTIME_REPORT=<path>), and the
// progress meter writes only to stderr.
//
// Cost model, mirroring hotpath.hpp:
//
//   * disabled (the default): every hook is one relaxed atomic load and a
//     branch;
//   * -DWEHEY_OBS=OFF: runtime::enabled() is a constant false, so guarded
//     hooks fold away entirely;
//   * enabled (WEHEY_RUNTIME_REPORT set, or set_enabled(true)): per-thread
//     slots with relaxed atomic counters — writers never share a cache
//     line with other writers' hot fields, and the only synchronization is
//     the one-time slot registration.
//
// Deterministic-count contract: the *count* fields (tasks executed, trials
// run, jobs submitted) are pure functions of the workload, so they are
// exactly equal across WEHEY_THREADS settings — the parallel engine counts
// them on its serial fallback paths too. The *time* fields (busy/idle/wait,
// latency histograms, RSS) are wall-clock and only comparable as ranges.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace wehey::obs {

/// Schema tag of the runtime sidecar document (see report.hpp for the
/// deterministic report schemas), and the only one `inspect` accepts.
/// The sidecar, as runtime_report_json writes it:
///
///   {"schema": "wehey.runtime_report.v1", "run": "<name>",
///    "wall_seconds": X,
///    "threads": {"configured": N, "hardware": N, "contexts": N,
///                "oversubscribed": bool},
///    "workers": [{"id": N, "kind": "worker" | "caller", "busy_ms": X,
///                 "idle_ms": X, "wait_ms": X, "chunks": N, "tasks": N}],
///    "scheduler": {"jobs": N, "tasks": N, "queue_depth_high_water": N,
///                  "drain_waits": N, "parallel_efficiency": X,
///                  "worker_imbalance": X, "wait_fraction": X,
///                  "idle_fraction": X, "submit_to_start_us": <hist>},
///    "trials": {"count": N, "supervised": N, "wall_ms": <hist>},
///    "process": {"rss_peak_kb": N, "event_heap_chunks": N,
///                "event_heap_bytes": N}}
///
/// <hist> is {"lo", "hi", "count", "sum", "min", "max", "bins"}, the
/// run report's histogram layout. The sidecar never carries a section of
/// the deterministic reports (decision, ground_truth, audit, cells,
/// stages); tests/test_runtime.cpp pins both properties.
inline constexpr char kRuntimeReportSchema[] = "wehey.runtime_report.v1";

namespace runtime {

// ------------------------------------------------------------ cheap gate

#ifdef WEHEY_OBS_DISABLED
inline constexpr bool enabled() { return false; }
#else
namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
#endif

/// Turn the profiler on/off at runtime. No-op under -DWEHEY_OBS=OFF.
void set_enabled(bool on);

/// Enable the profiler iff WEHEY_RUNTIME_REPORT is set (to a non-empty,
/// non-"0" value). Returns the resulting enabled() state. Idempotent — the
/// counters are NOT reset, so late callers don't erase earlier samples.
bool enable_from_env();

/// Zero every counter, histogram and watermark and restart the profiler's
/// wall clock. Bench loops call this between measured phases.
void reset();

/// Monotonic nanoseconds for hook call sites (steady_clock).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ------------------------------------------------------- engine hooks
//
// All hooks are no-ops while !enabled(); call sites in the parallel
// engine additionally guard with `if (runtime::enabled())` so the
// timestamp reads fold away too.

enum class ThreadKind { kCaller, kWorker };

/// Thread-slot registration happens lazily inside the note_* hooks; this
/// forces it up front (e.g. from worker_loop) so the first sample isn't
/// charged the registration mutex.
void register_thread(ThreadKind kind);

/// A pool worker spent `ns` parked in the work queue's condition wait.
void note_idle(std::uint64_t ns);

/// The calling thread spent `ns` draining a parallel_for (waiting for the
/// last workers to leave run_chunks after its own chunks ran out).
void note_drain_wait(std::uint64_t ns);

/// One claimed chunk of a broadcast job ran for `ns`, executing `tasks`
/// loop iterations on this thread.
void note_chunk(std::uint64_t ns, std::uint64_t tasks);

/// A broadcast job with `n` pending iterations was submitted to the pool.
/// Tracks the job count and the queue-depth high-water mark.
void note_job(std::size_t n);

/// First pickup of a job by a worker: wall latency from parallel_for's
/// submit to this worker's first chunk claim.
void note_submit_to_start(std::uint64_t ns);

/// `n` loop iterations ran serially on the calling thread (the engine's
/// serial fallback paths), taking `ns` overall. Keeps the task count
/// exact across thread counts.
void note_serial_tasks(std::uint64_t n, std::uint64_t ns);

/// One parallel_map trial finished, `wall_ms` of wall time. Counted on
/// both the pooled and the serial path, so trials.count is exact across
/// thread counts.
void note_trial(double wall_ms);

/// The supervisor installed a per-trial budget on a simulator — i.e. one
/// budgeted trial simulator came up. Deterministic count.
void note_trial_supervised();

/// The EventHeap slot pool grew by one chunk of `bytes` bytes. Rare
/// (pool growth only), so the counting-allocator hook is a plain call.
void note_event_heap_chunk(std::size_t bytes);

// Busy-region nesting. A trial body that reaches a nested parallel_map /
// parallel_for runs it serially in place (t_in_parallel_region), so the
// nested loop re-walks nanoseconds the enclosing chunk is already timing.
// Busy wall time is therefore charged only by the *outermost* executing
// region on a thread — without the bracket, parallel_efficiency could
// exceed 1.0. Task/chunk counts are charged at every depth (they are the
// deterministic fields and nested iterations are real work items).
void busy_enter();
void busy_exit();

/// RAII bracket around one executing region (a chunk-claim loop or a
/// serial fallback loop). Gating on enabled() at construction keeps the
/// bracket balanced even if the profiler is toggled mid-region, and folds
/// the whole class away under -DWEHEY_OBS=OFF.
class ScopedBusy {
 public:
  ScopedBusy() : active_(enabled()) {
    if (active_) busy_enter();
  }
  ~ScopedBusy() {
    if (active_) busy_exit();
  }
  ScopedBusy(const ScopedBusy&) = delete;
  ScopedBusy& operator=(const ScopedBusy&) = delete;

 private:
  bool active_;
};

// ---------------------------------------------------------- snapshot

/// Fixed-layout copy of an atomic latency histogram: `bins` holds
/// underflow + buckets + overflow, like obs::Histogram.
struct HistSnapshot {
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> bins;
};

struct WorkerSnapshot {
  int id = 0;
  ThreadKind kind = ThreadKind::kCaller;
  double busy_ms = 0.0;   ///< inside run_chunks / serial loops
  double idle_ms = 0.0;   ///< parked in the pool's condition wait
  double wait_ms = 0.0;   ///< caller-side drain waits
  std::uint64_t chunks = 0;
  std::uint64_t tasks = 0;
};

struct RuntimeSnapshot {
  double wall_seconds = 0.0;  ///< since enable/reset
  unsigned configured_threads = 0;
  unsigned hardware_threads = 0;
  std::vector<WorkerSnapshot> workers;  ///< threads that recorded anything

  // Scheduler totals and derived efficiency metrics.
  std::uint64_t jobs = 0;
  std::uint64_t tasks = 0;  ///< deterministic: exact across thread counts
  std::uint64_t queue_depth_high_water = 0;
  std::uint64_t drain_waits = 0;  ///< caller drain waits (== pooled jobs)
  HistSnapshot submit_to_start_us;
  /// Sum(busy) / (contexts * wall): 1.0 = every context busy the whole
  /// window. 0 when no context recorded anything.
  double parallel_efficiency = 0.0;
  /// max(busy) / mean(busy) over contexts with busy > 0; 1.0 = perfectly
  /// balanced (and when <= 1 context ran).
  double worker_imbalance = 1.0;
  /// Sum(drain wait) / Sum(busy + idle + drain wait).
  double wait_fraction = 0.0;
  /// Sum(worker idle) / Sum(busy + idle + drain wait).
  double idle_fraction = 0.0;

  // Trial accounting (parallel_map / supervisor).
  std::uint64_t trials = 0;  ///< deterministic: exact across thread counts
  std::uint64_t trials_supervised = 0;  ///< budgeted simulators brought up
  HistSnapshot trial_wall_ms;

  // Process-level resources.
  std::uint64_t event_heap_chunks = 0;
  std::uint64_t event_heap_bytes = 0;
  std::uint64_t rss_peak_kb = 0;  ///< VmHWM; 0 where /proc is unavailable
};

/// Consistent-enough copy of all counters (relaxed reads — take it when
/// the engine is quiescent for exact numbers).
RuntimeSnapshot snapshot();

/// Serialize a snapshot as a wehey.runtime_report.v1 document.
std::string runtime_report_json(const RuntimeSnapshot& snap,
                                const std::string& run_name);

/// The sidecar output path: WEHEY_RUNTIME_REPORT (empty / "0" = off).
std::string runtime_report_path_from_env();

/// Write the current snapshot to the WEHEY_RUNTIME_REPORT path, if set
/// and the profiler is enabled. Returns false only on I/O error.
bool write_runtime_report_from_env(const std::string& run_name);

}  // namespace runtime

// ------------------------------------------------------ progress meter

/// Live sweep progress heartbeat on stderr (WEHEY_PROGRESS=off|plain|tty,
/// default off), rate-limited to ~1 line/s. Tracks completed/total runs,
/// throughput, ETA, resumed-from-checkpoint, quarantine (budget-exhausted
/// verdicts) and knife-edge (|decision margin| under the gate threshold)
/// counts. finish() prints a final one-line wall-clock summary even in
/// mode "off", so CI logs capture sweep throughput without parsing JSON.
class ProgressMeter {
 public:
  enum class Mode { kOff, kPlain, kTty };

  /// Reads WEHEY_PROGRESS. `label` prefixes every line.
  explicit ProgressMeter(std::string label);

  /// Total runs the sweep will absorb (0 = unknown; no ETA then).
  void expect(std::size_t total) { total_ = total; }

  /// One run completed: executed, or `resumed` from a checkpoint journal
  /// (did not execute). `has_margin`/`margin` come from the run's decision
  /// section; the knife-edge tally uses the sweep aggregator's threshold
  /// (kKnifeEdgeMargin).
  void note_run(const std::string& verdict, bool has_margin, double margin,
                bool resumed = false);

  /// Print the final summary line (total runs, wall seconds, runs/sec,
  /// resumed count) — always, even in mode off, when any run was seen.
  void finish();

  Mode mode() const { return mode_; }
  std::size_t completed() const { return completed_; }
  std::size_t resumed() const { return resumed_; }
  std::size_t quarantined() const { return quarantined_; }
  std::size_t knife_edge() const { return knife_edge_; }

 private:
  void maybe_print(bool force);

  std::string label_;
  Mode mode_ = Mode::kOff;
  std::size_t total_ = 0;
  std::size_t completed_ = 0;
  std::size_t resumed_ = 0;
  std::size_t quarantined_ = 0;
  std::size_t knife_edge_ = 0;
  bool finished_ = false;
  bool line_open_ = false;  ///< tty mode: last write was a \r line
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_print_;
};

}  // namespace wehey::obs
