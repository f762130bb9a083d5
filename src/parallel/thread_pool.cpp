#include "parallel/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>

namespace wehey::parallel {
namespace {

/// Set while a pool worker (or a thread already inside parallel_for) is
/// running chunks; nested parallel_for calls from such threads run the
/// loop serially instead of re-entering the pool.
thread_local bool t_in_parallel_region = false;

/// Puts t_in_parallel_region back when a serial loop ends, fn's exception
/// included.
struct RegionRestore {
  bool saved = t_in_parallel_region;
  ~RegionRestore() { t_in_parallel_region = saved; }
};

unsigned resolve_configured_threads() {
  if (const char* env = std::getenv("WEHEY_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

unsigned configured_threads() {
  static const unsigned threads = resolve_configured_threads();
  return threads;
}

struct ThreadPool::Job {
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next{0};
  const std::function<void(std::size_t)>* fn = nullptr;
  unsigned max_helpers = 0;            ///< workers allowed on this job
  std::uint64_t submit_ns = 0;         ///< runtime-telemetry submit stamp
  std::atomic<unsigned> joined{0};     ///< workers that picked the job up
  std::mutex error_mu;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = configured_threads();
  const unsigned workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::run_chunks(Job& job) {
  const bool profiled = obs::runtime::enabled();
  // Bracket the whole claim loop: a nested serial fallback inside fn must
  // not re-charge these nanoseconds as busy time.
  obs::runtime::ScopedBusy busy;
  for (;;) {
    const std::size_t begin =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.n) return;
    const std::size_t end = std::min(begin + job.chunk, job.n);
    const std::uint64_t t0 = profiled ? obs::runtime::now_ns() : 0;
    try {
      for (std::size_t i = begin; i < end; ++i) (*job.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mu);
      if (!job.error) job.error = std::current_exception();
      job.next.store(job.n, std::memory_order_relaxed);  // drain remaining
      return;
    }
    if (profiled) {
      obs::runtime::note_chunk(obs::runtime::now_ns() - t0, end - begin);
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const bool profiled = obs::runtime::enabled();
      const std::uint64_t t0 = profiled ? obs::runtime::now_ns() : 0;
      work_cv_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && generation_ != seen_generation);
      });
      if (profiled) obs::runtime::note_idle(obs::runtime::now_ns() - t0);
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
      if (job->joined.fetch_add(1, std::memory_order_relaxed) >=
          job->max_helpers) {
        continue;  // this job is capped below the full pool width
      }
      ++active_workers_;
    }
    if (obs::runtime::enabled()) {
      // Register before the first chunk so this thread's slot carries the
      // worker kind even when the profiler came up mid-run.
      obs::runtime::register_thread(obs::runtime::ThreadKind::kWorker);
      if (job->submit_ns != 0) {
        obs::runtime::note_submit_to_start(obs::runtime::now_ns() -
                                           job->submit_ns);
      }
    }
    t_in_parallel_region = true;
    run_chunks(*job);
    t_in_parallel_region = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_workers_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              unsigned max_threads) {
  if (n == 0) return;
  const unsigned width =
      max_threads == 0 ? size() : std::min(max_threads, size());
  if (width <= 1 || n == 1 || workers_.empty() || t_in_parallel_region) {
    // A loop capped at one thread keeps its nested loops on this thread
    // too; a lone iteration leaves them the pool.
    const RegionRestore restore;
    if (width <= 1) t_in_parallel_region = true;
    if (obs::runtime::enabled()) {
      obs::runtime::ScopedBusy busy;
      const std::uint64_t t0 = obs::runtime::now_ns();
      for (std::size_t i = 0; i < n; ++i) fn(i);
      obs::runtime::note_serial_tasks(n, obs::runtime::now_ns() - t0);
    } else {
      for (std::size_t i = 0; i < n; ++i) fn(i);
    }
    return;
  }

  Job job;
  job.n = n;
  // ~4 chunks per context keeps the tail balanced without hammering the
  // shared cursor when trials are fast.
  job.chunk = std::max<std::size_t>(1, n / (4 * width));
  job.fn = &fn;
  job.max_helpers = width - 1;
  const bool profiled = obs::runtime::enabled();
  if (profiled) {
    obs::runtime::note_job(n);
    job.submit_ns = obs::runtime::now_ns();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++generation_;
  }
  work_cv_.notify_all();

  t_in_parallel_region = true;
  run_chunks(job);
  t_in_parallel_region = false;

  {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;
    // Wait until every worker that joined this job has left run_chunks —
    // `job` lives on this stack frame.
    const std::uint64_t t0 = profiled ? obs::runtime::now_ns() : 0;
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
    if (profiled) {
      obs::runtime::note_drain_wait(obs::runtime::now_ns() - t0);
    }
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace wehey::parallel
