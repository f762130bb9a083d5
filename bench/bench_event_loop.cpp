// Microbenchmarks of this repo's two execution hot paths. The end-to-end
// numbers that decide a performance change (runs/s, run latency, peak RSS
// of whole WeHeY grids) come from perfbench (python3 perfbench/run.py);
// the rows here are secondary:
//
//  (1) the simulator event loop — events/sec through the EventHeap +
//      InplaceAction scheduler for small captures and for Packet-sized
//      captures, with a metrics recorder bound, and with the runtime
//      telemetry enabled;
//  (2) the parallel trial engine — wall-clock speedup of a multi-config
//      scenario grid under 1/2/N threads via parallel::run_trials.
//
// Every number here is wall-clock, so it is printed, not reported, and the
// bench checks its own bounds: enabling the runtime telemetry may cost the
// event loop at most 2%, and every grid row that runs no more threads than
// the host has must keep its speedup, parallel efficiency and worker
// imbalance at their floors. Each miss prints "FAIL: ..." and the bench
// exits 1.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "netsim/packet.hpp"
#include "netsim/simulator.hpp"
#include "obs/runtime.hpp"
#include "parallel/trials.hpp"

using namespace wehey;
using namespace wehey::experiments;

namespace {

/// Enabling the runtime telemetry may cost the event loop at most this
/// share of its events/sec (median of paired ratios).
constexpr double kMaxRuntimeIdleOverhead = 0.02;

/// Floors of every grid row that runs no more threads than the host has;
/// a row with more measures the host, not the engine, and is not checked.
constexpr double kMinGridSpeedup = 0.55;
constexpr double kMinParallelEfficiency = 0.2;
constexpr double kMinWorkerImbalance = 0.99;

/// Print a FAIL line unless `value` >= `floor`; returns whether it held.
bool at_least(unsigned threads, const char* what, double value,
              double floor) {
  if (value >= floor) return true;
  std::printf("FAIL: %u-thread grid row: %s %.3f is below %.2f\n", threads,
              what, value, floor);
  return false;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Shared per-lane bookkeeping; lives in a vector that outlives the run, so
/// events only ever carry a pointer to it (plus their payload).
struct LaneState {
  netsim::Simulator* sim = nullptr;
  std::size_t* fired = nullptr;
  std::size_t total = 0;
  std::uint64_t id = 0;
  std::uint64_t step = 0;
};

/// An event whose capture is one pointer — matches the [this] timer and ACK
/// closures in the simulator, so this isolates queue mechanics.
struct SmallEvent {
  LaneState* lane;
  void operator()() {
    auto& st = *lane;
    ++*st.fired;
    if (*st.fired >= st.total) return;
    ++st.step;
    st.sim->reschedule_current(static_cast<Time>(1 + ((st.id + st.step) & 7)));
  }
};

/// An event carrying a full Packet by value — matches the Link transmit and
/// propagation closures that dominate real simulations.
struct PacketEvent {
  LaneState* lane;
  netsim::Packet p;
  void operator()() {
    auto& st = *lane;
    ++*st.fired;
    if (*st.fired >= st.total) return;
    p.seq += 1;
    st.sim->reschedule_current(1 + static_cast<Time>(p.id & 7));
  }
};

/// Self-rescheduling event chains with `lanes` concurrent lanes, `total`
/// events overall.
double events_per_sec(std::size_t lanes, std::size_t total, bool heavy) {
  netsim::Simulator sim;
  std::size_t fired = 0;
  std::vector<LaneState> states(lanes);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    states[lane] = {&sim, &fired, total, lane, 0};
    if (heavy) {
      netsim::Packet pkt;
      pkt.id = lane;
      pkt.size = 1500;
      sim.schedule(static_cast<Time>(1 + (lane & 7)),
                   PacketEvent{&states[lane], pkt});
    } else {
      sim.schedule(static_cast<Time>(1 + (lane & 7)),
                   SmallEvent{&states[lane]});
    }
  }
  sim.run();
  const double dt = seconds_since(t0);
  return static_cast<double>(fired) / dt;
}

}  // namespace

int main() {
  bench::print_header("Event loop", "events/sec and parallel grid speedup");
  obs::ObservedSweep obs_run("bench_event_loop");

  // (1) Event-loop microbenchmark. The configurations are measured
  // round-robin across several reps and the best rep of each is kept:
  // interleaving means slow phases of a shared/throttled host hit every
  // configuration alike instead of biasing whichever ran last.
  const std::size_t kLanes = 64;
  const std::size_t kEvents = 400'000;
  const int kReps = 7;
  double small = 0, heavy = 0, obs_active = 0;
  std::vector<double> runtime_ratios;
  const bool runtime_was_enabled = obs::runtime::enabled();
  {
    // The eps measurements must not inherit the run-level recorder: the
    // observed loop below binds its own.
    obs::ScopedRecorder quiesce(nullptr);
    for (int rep = 0; rep < kReps; ++rep) {
      const double plain = events_per_sec(kLanes, kEvents, false);
      small = std::max(small, plain);
      // Runtime-telemetry guard: the engine profiler stays off the event
      // dispatch hot path (its only netsim hook is slot-pool growth), so
      // enabling it must not move events/sec. The two runs are paired
      // back-to-back within each rep and the gate uses the median of the
      // per-rep ratios, so shared-host noise that hits both alike cancels
      // out of the overhead number.
      obs::runtime::set_enabled(true);
      const double rt_on = events_per_sec(kLanes, kEvents, false);
      obs::runtime::set_enabled(runtime_was_enabled);
      runtime_ratios.push_back(rt_on / plain);
      heavy = std::max(heavy, events_per_sec(kLanes, kEvents, true));
      // The fully observed loop is timed too, so the active metric cost
      // stays visible.
      obs::Recorder rec(/*metrics_on=*/true, /*trace_on=*/false);
      obs::ScopedRecorder bind(&rec);
      obs_active = std::max(obs_active, events_per_sec(kLanes, kEvents, false));
    }
  }
  std::nth_element(runtime_ratios.begin(),
                   runtime_ratios.begin() + runtime_ratios.size() / 2,
                   runtime_ratios.end());
  const double runtime_idle_overhead =
      1.0 - runtime_ratios[runtime_ratios.size() / 2];

  std::printf("event loop (%zu events, %zu lanes):\n", kEvents, kLanes);
  std::printf("  %-34s | %10.2f M events/s\n", "small captures", small / 1e6);
  std::printf("  %-34s | %10.2f M events/s\n", "Packet-sized captures",
              heavy / 1e6);
  std::printf("  %-34s | %10.2f M events/s  (%+.2f%% vs small)\n",
              "metrics recorder bound", obs_active / 1e6,
              100.0 * (obs_active / small - 1.0));
  std::printf("  %-34s | median overhead %+.2f%%\n",
              "runtime telemetry enabled", 100.0 * runtime_idle_overhead);
  bool ok = true;
  if (runtime_idle_overhead > kMaxRuntimeIdleOverhead) {
    std::printf("FAIL: runtime telemetry idle overhead %+.2f%% exceeds "
                "%.0f%%\n",
                100.0 * runtime_idle_overhead,
                100.0 * kMaxRuntimeIdleOverhead);
    ok = false;
  }

  // (2) Grid speedup through run_trials. A small but real scenario grid;
  // every trial is a full simultaneous experiment.
  std::vector<ScenarioConfig> configs;
  const unsigned hw = parallel::configured_threads();
  const std::size_t grid = std::max<std::size_t>(2 * hw, 8);
  for (std::size_t i = 0; i < grid; ++i) {
    auto cfg = default_scenario("Zoom", 1 + i);
    cfg.replay_duration = seconds(10);
    configs.push_back(cfg);
  }

  // Always time a 2-thread run even on single-core hosts: it cannot be
  // faster there, but it exercises the pool's threaded path under load.
  std::vector<unsigned> thread_counts{1, 2};
  if (hw > 2) thread_counts.push_back(hw);
  if (hw < 2) {
    std::printf("note: %u hardware thread(s) — grid speedup is bounded by "
                "the host, not the engine\n", hw);
  }
  // Detected hardware concurrency, as opposed to the WEHEY_THREADS-driven
  // `hw` above: only rows within it are held to the floors.
  const unsigned detected_hw = std::max(1u, std::thread::hardware_concurrency());
  double serial_time = 0;
  // Profile every row: the floors read its derived scheduler metrics.
  obs::runtime::set_enabled(true);
  for (unsigned threads : thread_counts) {
    obs::runtime::reset();
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = parallel::run_trials(
        configs, run_simultaneous_experiment, threads);
    const double dt = seconds_since(t0);
    const auto snap = obs::runtime::snapshot();
    if (threads == 1) serial_time = dt;
    const double speedup = serial_time / dt;
    const bool gated = threads <= detected_hw;
    std::printf("grid of %zu trials, %2u thread(s): %6.2f s  (speedup "
                "%.2fx, efficiency %.2f, imbalance %.2f)%s%s\n",
                results.size(), threads, dt, speedup,
                snap.parallel_efficiency, snap.worker_imbalance,
                gated ? "" : "  [more threads than cores: not gated]",
                threads == 1 ? "  [baseline]" : "");
    if (gated) {
      ok = at_least(threads, "speedup", speedup, kMinGridSpeedup) && ok;
      ok = at_least(threads, "parallel efficiency", snap.parallel_efficiency,
                    kMinParallelEfficiency) &&
           ok;
      ok = at_least(threads, "worker imbalance", snap.worker_imbalance,
                    kMinWorkerImbalance) &&
           ok;
    }
  }
  if (!runtime_was_enabled) obs::runtime::set_enabled(false);

  obs_run.report().verdict = "completed";
  obs_run.report().values["event_loop.events"] = static_cast<double>(kEvents);
  obs_run.report().values["grid.trials"] = static_cast<double>(configs.size());
  return obs_run.finish() && ok ? 0 : 1;
}
