#include "obs/runtime.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "obs/aggregate.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"

namespace wehey::obs::runtime {
namespace {

constexpr int kMaxSlots = 256;     ///< execution contexts ever profiled
constexpr int kHistBuckets = 48;   ///< latency histogram resolution

/// Lock-free latency histogram over nanosecond observations, displayed in
/// `unit_ns` (1e3 = µs, 1e6 = ms). Same underflow/buckets/overflow layout
/// as obs::Histogram so snapshots render through the same quantile code.
struct AtomicHist {
  double lo;        ///< in display units
  double hi;        ///< in display units
  double unit_ns;   ///< nanoseconds per display unit

  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum_ns{0};
  std::atomic<std::uint64_t> min_ns{UINT64_MAX};
  std::atomic<std::uint64_t> max_ns{0};
  std::array<std::atomic<std::uint64_t>, kHistBuckets + 2> bins{};

  AtomicHist(double lo_units, double hi_units, double ns_per_unit)
      : lo(lo_units), hi(hi_units), unit_ns(ns_per_unit) {}

  void observe(std::uint64_t ns) {
    count.fetch_add(1, std::memory_order_relaxed);
    sum_ns.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t seen = min_ns.load(std::memory_order_relaxed);
    while (ns < seen &&
           !min_ns.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
    }
    seen = max_ns.load(std::memory_order_relaxed);
    while (ns > seen &&
           !max_ns.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
    }
    const double v = static_cast<double>(ns) / unit_ns;
    int bin;
    if (v < lo) {
      bin = 0;
    } else if (v >= hi) {
      bin = kHistBuckets + 1;
    } else {
      bin = 1 + static_cast<int>((v - lo) / ((hi - lo) / kHistBuckets));
      bin = std::min(bin, kHistBuckets);
    }
    bins[static_cast<std::size_t>(bin)].fetch_add(1,
                                                  std::memory_order_relaxed);
  }

  void reset() {
    count.store(0, std::memory_order_relaxed);
    sum_ns.store(0, std::memory_order_relaxed);
    min_ns.store(UINT64_MAX, std::memory_order_relaxed);
    max_ns.store(0, std::memory_order_relaxed);
    for (auto& b : bins) b.store(0, std::memory_order_relaxed);
  }

  HistSnapshot snap() const {
    HistSnapshot s;
    s.lo = lo;
    s.hi = hi;
    s.count = count.load(std::memory_order_relaxed);
    s.sum = static_cast<double>(sum_ns.load(std::memory_order_relaxed)) /
            unit_ns;
    const std::uint64_t mn = min_ns.load(std::memory_order_relaxed);
    s.min = s.count > 0 ? static_cast<double>(mn) / unit_ns : 0.0;
    s.max = static_cast<double>(max_ns.load(std::memory_order_relaxed)) /
            unit_ns;
    s.bins.reserve(bins.size());
    for (const auto& b : bins) {
      s.bins.push_back(b.load(std::memory_order_relaxed));
    }
    return s;
  }
};

/// One execution context's counters. Written only by the owning thread
/// (relaxed), read by snapshot(); padded so writers never false-share.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> idle_ns{0};
  std::atomic<std::uint64_t> wait_ns{0};
  std::atomic<std::uint64_t> chunks{0};
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<int> kind{-1};  ///< -1 unused, else ThreadKind
};

struct State {
  std::array<Slot, kMaxSlots> slots;
  std::atomic<int> slot_count{0};
  std::mutex register_mu;

  std::atomic<std::uint64_t> jobs{0};
  std::atomic<std::uint64_t> queue_high_water{0};
  std::atomic<std::uint64_t> drain_waits{0};
  std::atomic<std::uint64_t> trials{0};
  std::atomic<std::uint64_t> trials_supervised{0};
  std::atomic<std::uint64_t> heap_chunks{0};
  std::atomic<std::uint64_t> heap_bytes{0};
  std::atomic<std::uint64_t> start_ns{0};

  AtomicHist submit_to_start_us{0.0, 5000.0, 1e3};  ///< 0..5 ms in µs
  AtomicHist trial_wall_ms{0.0, 10000.0, 1e6};      ///< 0..10 s in ms
};

State& state() {
  static State s;
  return s;
}

thread_local Slot* t_slot = nullptr;
/// Nesting depth of executing regions on this thread (see ScopedBusy):
/// busy nanoseconds are charged only when the noting region is outermost.
thread_local int t_busy_depth = 0;

Slot* slot_for(ThreadKind kind) {
  if (t_slot != nullptr) return t_slot;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.register_mu);
  const int i = s.slot_count.load(std::memory_order_relaxed);
  if (i >= kMaxSlots) return nullptr;  // beyond capacity: drop samples
  s.slot_count.store(i + 1, std::memory_order_relaxed);
  Slot* slot = &s.slots[static_cast<std::size_t>(i)];
  slot->kind.store(static_cast<int>(kind), std::memory_order_relaxed);
  t_slot = slot;
  return slot;
}

void atomic_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t seen = a.load(std::memory_order_relaxed);
  while (v > seen &&
         !a.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

/// WEHEY_THREADS if positive, else detected hardware concurrency —
/// parallel::configured_threads() restated here because obs sits below
/// the parallel library in the link order.
unsigned env_configured_threads() {
  if (const char* env = std::getenv("WEHEY_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Peak resident set (VmHWM) in KiB from /proc/self/status; 0 when the
/// proc filesystem is unavailable.
std::uint64_t rss_peak_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

void hist_json(std::ostringstream& out, const HistSnapshot& h,
               const char* pad) {
  out << "{\"lo\": " << json_number(h.lo) << ", \"hi\": " << json_number(h.hi)
      << ", \"count\": " << h.count << ", \"sum\": " << json_number(h.sum)
      << ", \"min\": " << json_number(h.min)
      << ", \"max\": " << json_number(h.max) << ",\n"
      << pad << "\"bins\": [";
  for (std::size_t i = 0; i < h.bins.size(); ++i) {
    out << (i == 0 ? "" : ", ") << h.bins[i];
  }
  out << "]}";
}

}  // namespace

#ifndef WEHEY_OBS_DISABLED
namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail
#endif

void set_enabled(bool on) {
#ifdef WEHEY_OBS_DISABLED
  (void)on;
#else
  if (on && state().start_ns.load(std::memory_order_relaxed) == 0) {
    state().start_ns.store(now_ns(), std::memory_order_relaxed);
  }
  detail::g_enabled.store(on, std::memory_order_relaxed);
#endif
}

bool enable_from_env() {
  if (!runtime_report_path_from_env().empty()) set_enabled(true);
  return enabled();
}

void reset() {
  State& s = state();
  const int n = s.slot_count.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    Slot& slot = s.slots[static_cast<std::size_t>(i)];
    slot.busy_ns.store(0, std::memory_order_relaxed);
    slot.idle_ns.store(0, std::memory_order_relaxed);
    slot.wait_ns.store(0, std::memory_order_relaxed);
    slot.chunks.store(0, std::memory_order_relaxed);
    slot.tasks.store(0, std::memory_order_relaxed);
  }
  s.jobs.store(0, std::memory_order_relaxed);
  s.queue_high_water.store(0, std::memory_order_relaxed);
  s.drain_waits.store(0, std::memory_order_relaxed);
  s.trials.store(0, std::memory_order_relaxed);
  s.trials_supervised.store(0, std::memory_order_relaxed);
  s.heap_chunks.store(0, std::memory_order_relaxed);
  s.heap_bytes.store(0, std::memory_order_relaxed);
  s.submit_to_start_us.reset();
  s.trial_wall_ms.reset();
  s.start_ns.store(now_ns(), std::memory_order_relaxed);
}

void register_thread(ThreadKind kind) {
  if (!enabled()) return;
  slot_for(kind);
}

void note_idle(std::uint64_t ns) {
  if (!enabled()) return;
  if (Slot* slot = slot_for(ThreadKind::kWorker)) {
    slot->idle_ns.fetch_add(ns, std::memory_order_relaxed);
  }
}

void note_drain_wait(std::uint64_t ns) {
  if (!enabled()) return;
  state().drain_waits.fetch_add(1, std::memory_order_relaxed);
  if (Slot* slot = slot_for(ThreadKind::kCaller)) {
    slot->wait_ns.fetch_add(ns, std::memory_order_relaxed);
  }
}

void busy_enter() { ++t_busy_depth; }

void busy_exit() { --t_busy_depth; }

void note_chunk(std::uint64_t ns, std::uint64_t tasks) {
  if (!enabled()) return;
  if (Slot* slot = slot_for(ThreadKind::kCaller)) {
    if (t_busy_depth <= 1) {
      slot->busy_ns.fetch_add(ns, std::memory_order_relaxed);
    }
    slot->chunks.fetch_add(1, std::memory_order_relaxed);
    slot->tasks.fetch_add(tasks, std::memory_order_relaxed);
  }
}

void note_job(std::size_t n) {
  if (!enabled()) return;
  State& s = state();
  s.jobs.fetch_add(1, std::memory_order_relaxed);
  atomic_max(s.queue_high_water, static_cast<std::uint64_t>(n));
}

void note_submit_to_start(std::uint64_t ns) {
  if (!enabled()) return;
  state().submit_to_start_us.observe(ns);
}

void note_serial_tasks(std::uint64_t n, std::uint64_t ns) {
  if (!enabled()) return;
  if (Slot* slot = slot_for(ThreadKind::kCaller)) {
    if (t_busy_depth <= 1) {
      slot->busy_ns.fetch_add(ns, std::memory_order_relaxed);
    }
    slot->tasks.fetch_add(n, std::memory_order_relaxed);
  }
}

void note_trial(double wall_ms) {
  if (!enabled()) return;
  State& s = state();
  s.trials.fetch_add(1, std::memory_order_relaxed);
  s.trial_wall_ms.observe(static_cast<std::uint64_t>(wall_ms * 1e6));
}

void note_trial_supervised() {
  if (!enabled()) return;
  state().trials_supervised.fetch_add(1, std::memory_order_relaxed);
}

void note_event_heap_chunk(std::size_t bytes) {
  if (!enabled()) return;
  State& s = state();
  s.heap_chunks.fetch_add(1, std::memory_order_relaxed);
  s.heap_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

RuntimeSnapshot snapshot() {
  State& s = state();
  RuntimeSnapshot snap;
  const std::uint64_t start = s.start_ns.load(std::memory_order_relaxed);
  snap.wall_seconds =
      start > 0 ? static_cast<double>(now_ns() - start) / 1e9 : 0.0;
  snap.configured_threads = env_configured_threads();
  const unsigned hw = std::thread::hardware_concurrency();
  snap.hardware_threads = hw > 0 ? hw : 1;

  const int n = s.slot_count.load(std::memory_order_relaxed);
  double total_busy_ns = 0.0, total_idle_ns = 0.0, total_wait_ns = 0.0;
  double max_busy_ns = 0.0;
  int busy_contexts = 0;
  for (int i = 0; i < n; ++i) {
    const Slot& slot = s.slots[static_cast<std::size_t>(i)];
    WorkerSnapshot w;
    w.id = i;
    w.kind = static_cast<ThreadKind>(slot.kind.load(std::memory_order_relaxed));
    const double busy =
        static_cast<double>(slot.busy_ns.load(std::memory_order_relaxed));
    const double idle =
        static_cast<double>(slot.idle_ns.load(std::memory_order_relaxed));
    const double wait =
        static_cast<double>(slot.wait_ns.load(std::memory_order_relaxed));
    w.busy_ms = busy / 1e6;
    w.idle_ms = idle / 1e6;
    w.wait_ms = wait / 1e6;
    w.chunks = slot.chunks.load(std::memory_order_relaxed);
    w.tasks = slot.tasks.load(std::memory_order_relaxed);
    snap.tasks += w.tasks;
    total_busy_ns += busy;
    total_idle_ns += idle;
    total_wait_ns += wait;
    if (busy > 0.0) {
      ++busy_contexts;
      max_busy_ns = std::max(max_busy_ns, busy);
    }
    snap.workers.push_back(w);
  }

  snap.jobs = s.jobs.load(std::memory_order_relaxed);
  snap.queue_depth_high_water =
      s.queue_high_water.load(std::memory_order_relaxed);
  snap.drain_waits = s.drain_waits.load(std::memory_order_relaxed);
  snap.submit_to_start_us = s.submit_to_start_us.snap();
  snap.trials = s.trials.load(std::memory_order_relaxed);
  snap.trials_supervised = s.trials_supervised.load(std::memory_order_relaxed);
  snap.trial_wall_ms = s.trial_wall_ms.snap();
  snap.event_heap_chunks = s.heap_chunks.load(std::memory_order_relaxed);
  snap.event_heap_bytes = s.heap_bytes.load(std::memory_order_relaxed);
  snap.rss_peak_kb = rss_peak_kb();

  const double wall_ns = snap.wall_seconds * 1e9;
  if (!snap.workers.empty() && wall_ns > 0.0) {
    snap.parallel_efficiency =
        total_busy_ns / (static_cast<double>(snap.workers.size()) * wall_ns);
  }
  if (busy_contexts > 1) {
    snap.worker_imbalance =
        max_busy_ns / (total_busy_ns / static_cast<double>(busy_contexts));
  }
  const double accounted = total_busy_ns + total_idle_ns + total_wait_ns;
  if (accounted > 0.0) {
    snap.wait_fraction = total_wait_ns / accounted;
    snap.idle_fraction = total_idle_ns / accounted;
  }
  return snap;
}

std::string runtime_report_json(const RuntimeSnapshot& snap,
                                const std::string& run_name) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"" << kRuntimeReportSchema << "\",\n";
  out << "  \"run\": \"" << json_escape(run_name) << "\",\n";
  out << "  \"wall_seconds\": " << json_number(snap.wall_seconds) << ",\n";
  out << "  \"threads\": {\"configured\": " << snap.configured_threads
      << ", \"hardware\": " << snap.hardware_threads
      << ", \"contexts\": " << snap.workers.size() << ", \"oversubscribed\": "
      << (snap.configured_threads > snap.hardware_threads ? "true" : "false")
      << "},\n";
  out << "  \"workers\": [";
  for (std::size_t i = 0; i < snap.workers.size(); ++i) {
    const WorkerSnapshot& w = snap.workers[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"id\": " << w.id << ", \"kind\": \""
        << (w.kind == ThreadKind::kWorker ? "worker" : "caller") << "\""
        << ", \"busy_ms\": " << json_number(w.busy_ms)
        << ", \"idle_ms\": " << json_number(w.idle_ms)
        << ", \"wait_ms\": " << json_number(w.wait_ms)
        << ", \"chunks\": " << w.chunks << ", \"tasks\": " << w.tasks << "}";
  }
  out << (snap.workers.empty() ? "" : "\n  ") << "],\n";
  out << "  \"scheduler\": {\n";
  out << "    \"jobs\": " << snap.jobs << ",\n";
  out << "    \"tasks\": " << snap.tasks << ",\n";
  out << "    \"queue_depth_high_water\": " << snap.queue_depth_high_water
      << ",\n";
  out << "    \"drain_waits\": " << snap.drain_waits << ",\n";
  out << "    \"parallel_efficiency\": "
      << json_number(snap.parallel_efficiency) << ",\n";
  out << "    \"worker_imbalance\": " << json_number(snap.worker_imbalance)
      << ",\n";
  out << "    \"wait_fraction\": " << json_number(snap.wait_fraction)
      << ",\n";
  out << "    \"idle_fraction\": " << json_number(snap.idle_fraction)
      << ",\n";
  out << "    \"submit_to_start_us\": ";
  hist_json(out, snap.submit_to_start_us, "      ");
  out << "\n  },\n";
  out << "  \"trials\": {\n";
  out << "    \"count\": " << snap.trials << ",\n";
  out << "    \"supervised\": " << snap.trials_supervised << ",\n";
  out << "    \"wall_ms\": ";
  hist_json(out, snap.trial_wall_ms, "      ");
  out << "\n  },\n";
  out << "  \"process\": {\"rss_peak_kb\": " << snap.rss_peak_kb
      << ", \"event_heap_chunks\": " << snap.event_heap_chunks
      << ", \"event_heap_bytes\": " << snap.event_heap_bytes << "}\n";
  out << "}\n";
  return out.str();
}

std::string runtime_report_path_from_env() {
  if (const char* path = std::getenv("WEHEY_RUNTIME_REPORT")) {
    if (path[0] != 0 && std::string(path) != "0") return path;
  }
  return {};
}

bool write_runtime_report_from_env(const std::string& run_name) {
  if (!enabled()) return true;
  const std::string path = runtime_report_path_from_env();
  if (path.empty()) return true;
  if (!write_report_file(path, runtime_report_json(snapshot(), run_name))) {
    std::fprintf(stderr, "runtime report: FAILED to write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "runtime report: %s\n", path.c_str());
  return true;
}

}  // namespace wehey::obs::runtime

namespace wehey::obs {

namespace {

ProgressMeter::Mode progress_mode_from_env() {
  const char* v = std::getenv("WEHEY_PROGRESS");
  if (v == nullptr || v[0] == 0) return ProgressMeter::Mode::kOff;
  const std::string mode(v);
  if (mode == "plain") return ProgressMeter::Mode::kPlain;
  if (mode == "tty") {
    // Carriage-return repainting only makes sense on a real terminal;
    // redirected stderr (CI logs, tee'd files) gets the plain one-line-
    // per-print form instead of a wall of control characters.
    return isatty(fileno(stderr)) != 0 ? ProgressMeter::Mode::kTty
                                       : ProgressMeter::Mode::kPlain;
  }
  return ProgressMeter::Mode::kOff;
}

}  // namespace

ProgressMeter::ProgressMeter(std::string label)
    : label_(std::move(label)),
      mode_(progress_mode_from_env()),
      start_(std::chrono::steady_clock::now()),
      last_print_(start_ - std::chrono::hours(1)) {}

void ProgressMeter::note_run(const std::string& verdict, bool has_margin,
                             double margin, bool resumed) {
  ++completed_;
  if (resumed) ++resumed_;
  if (verdict == kBudgetExhaustedVerdict) ++quarantined_;
  if (has_margin && std::abs(margin) < kKnifeEdgeMargin) ++knife_edge_;
  maybe_print(/*force=*/total_ > 0 && completed_ == total_);
}

void ProgressMeter::maybe_print(bool force) {
  if (mode_ == Mode::kOff) return;
  const auto now = std::chrono::steady_clock::now();
  if (!force && now - last_print_ < std::chrono::seconds(1)) return;
  last_print_ = now;
  const double secs = std::chrono::duration<double>(now - start_).count();
  const double rate =
      secs > 0.0 ? static_cast<double>(completed_) / secs : 0.0;
  char line[256];
  int len;
  if (total_ > 0) {
    const double eta =
        rate > 0.0 ? static_cast<double>(total_ - completed_) / rate : 0.0;
    len = std::snprintf(line, sizeof(line),
                        "%s: %zu/%zu runs  %.1f runs/s  ETA %.0fs",
                        label_.c_str(), completed_, total_, rate, eta);
  } else {
    len = std::snprintf(line, sizeof(line), "%s: %zu runs  %.1f runs/s",
                        label_.c_str(), completed_, rate);
  }
  if (resumed_ > 0 || quarantined_ > 0 || knife_edge_ > 0) {
    std::snprintf(line + len, sizeof(line) - static_cast<std::size_t>(len),
                  "  (resumed %zu, quarantined %zu, knife-edge %zu)",
                  resumed_, quarantined_, knife_edge_);
  }
  if (mode_ == Mode::kTty) {
    // Rewrite the line in place; pad so a shorter update fully overwrites
    // the previous one.
    std::fprintf(stderr, "\r%-100s", line);
    std::fflush(stderr);
    line_open_ = true;
  } else {
    std::fprintf(stderr, "%s\n", line);
  }
}

void ProgressMeter::finish() {
  if (finished_) return;
  finished_ = true;
  if (line_open_) {
    std::fputc('\n', stderr);
    line_open_ = false;
  }
  if (completed_ == 0) return;
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const double rate =
      secs > 0.0 ? static_cast<double>(completed_) / secs : 0.0;
  // Always printed (even WEHEY_PROGRESS=off): the one line CI logs can
  // grep for sweep throughput without parsing JSON.
  std::fprintf(stderr,
               "%s: %zu runs in %.2fs (%.1f runs/s, %zu resumed from "
               "checkpoint)\n",
               label_.c_str(), completed_, secs, rate, resumed_);
}

}  // namespace wehey::obs
