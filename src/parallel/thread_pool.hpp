// Fixed thread pool with a chunked work queue — the execution engine the
// bench binaries use to sweep ScenarioConfig grids across cores.
//
// Model: one process-wide pool (ThreadPool::global(), sized from the
// WEHEY_THREADS environment variable, default hardware concurrency).
// parallel_for(n, fn) partitions [0, n) into chunks claimed from a shared
// atomic cursor; the calling thread always participates, idle workers
// help. Because every trial writes only its own result slot, output
// ordering is by index — stable and independent of thread count — and
// each trial's determinism comes from its own seeded Rng + Simulator.
//
// Nested calls (a parallel_for issued from inside a worker) degrade to the
// serial path rather than deadlocking, so library code can parallelize
// internally (e.g. the phases of one experiments::run_reported_test) and
// still be called from a parallel grid sweep.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/recorder.hpp"
#include "obs/runtime.hpp"

namespace wehey::parallel {

/// Worker-thread budget resolved from the environment: WEHEY_THREADS if
/// set to a positive integer, else std::thread::hardware_concurrency().
/// WEHEY_THREADS=1 forces the fully serial path (no pool threads touched).
/// Read once and cached — safe to call from any thread afterwards.
unsigned configured_threads();

class ThreadPool {
 public:
  /// A pool with `threads` total execution contexts (including the
  /// caller); spawns threads-1 workers. threads == 0 means
  /// configured_threads().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution contexts (workers + calling thread).
  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Run fn(i) for every i in [0, n), spread over the pool. Blocks until
  /// all iterations finish. `max_threads` caps the number of contexts used
  /// for this call (0 = all); at 1 the loop runs on the calling thread,
  /// and so does every parallel_for nested in it. Exceptions from fn are
  /// rethrown (first one wins) after the loop drains.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    unsigned max_threads = 0);

  /// The shared process-wide pool, created on first use with
  /// configured_threads() contexts.
  static ThreadPool& global();

 private:
  struct Job;

  void worker_loop();
  static void run_chunks(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   ///< signals workers: new job / stop
  std::condition_variable done_cv_;   ///< signals caller: workers drained
  Job* job_ = nullptr;                ///< current broadcast job (or null)
  std::uint64_t generation_ = 0;      ///< bumped per job, wakes workers
  unsigned active_workers_ = 0;
  bool stop_ = false;
};

namespace detail {

/// parallel_map's trial loop on the global pool (whose serial branch
/// also covers `threads <= 1`). With runtime telemetry enabled, wraps
/// every trial in wall-time measurement (runtime::note_trial), so
/// trials.count stays exact across thread counts.
inline void map_loop(std::size_t n,
                     const std::function<void(std::size_t)>& body,
                     unsigned threads) {
  if (!obs::runtime::enabled()) {
    ThreadPool::global().parallel_for(n, body, threads);
    return;
  }
  const std::function<void(std::size_t)> timed = [&](std::size_t i) {
    const std::uint64_t t0 = obs::runtime::now_ns();
    body(i);
    obs::runtime::note_trial(
        static_cast<double>(obs::runtime::now_ns() - t0) / 1e6);
  };
  ThreadPool::global().parallel_for(n, timed, threads);
}

}  // namespace detail

/// Run fn(i) for i in [0, n) on the global pool and collect the results in
/// index order. `threads` == 0 uses the configured default; == 1 runs
/// serially on the calling thread, maps nested in fn included.
///
/// When an obs::Recorder is bound to the calling thread, every trial gets
/// its own child recorder bound around fn(i), and the children are folded
/// back into the parent in index order after the loop — the serial path
/// does exactly the same, so merged metrics and timelines are bit-identical
/// across WEHEY_THREADS settings.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, unsigned threads = 0)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  static_assert(std::is_default_constructible_v<R>,
                "parallel_map results must be default-constructible");
  std::vector<R> results(n);
  if (threads == 0) threads = configured_threads();
  obs::Recorder* parent = obs::Recorder::current();
  if (parent == nullptr) {
    detail::map_loop(
        n, [&](std::size_t i) { results[i] = fn(i); }, threads);
    return results;
  }
  std::vector<obs::Recorder> children;
  children.reserve(n);
  for (std::size_t i = 0; i < n; ++i) children.push_back(parent->child());
  detail::map_loop(
      n,
      [&](std::size_t i) {
        obs::ScopedRecorder bind(&children[i]);
        results[i] = fn(i);
      },
      threads);
  for (std::size_t i = 0; i < n; ++i) {
    parent->absorb(std::move(children[i]), "trial " + std::to_string(i));
  }
  return results;
}

}  // namespace wehey::parallel
