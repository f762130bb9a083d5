// One emulation/simulation experiment of §6: a Figure-1 topology with a
// configured rate-limiter, CAIDA-like background traffic, and WeHeY's
// replay phases:
//
//   SimOriginal    — the simultaneous replay of the original trace on
//                    p1 and p2 (the measurements Alg. 1 consumes),
//   SimInverted    — the simultaneous bit-inverted replay (for the
//                    differentiation-confirmation step),
//   SingleOriginal — the p0 original replay (the X set of §4.1),
//   SingleInverted — the p0 bit-inverted replay (WeHe's control).
//
// Each phase rebuilds the network from the same configuration (fresh
// queues, fresh background seed), mirroring how consecutive replays on a
// real network see fresh-but-statistically-similar conditions.
//
// All Table-2 parameters appear here under their paper names. The phase
// and test procedure is the one shared with the wild runner, in
// experiments/phase.hpp.
#pragma once

#include <string>
#include <vector>

#include "core/localizer.hpp"
#include "experiments/network.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "trace/trace.hpp"

namespace wehey::experiments {

struct ScenarioConfig {
  /// App whose trace pair is replayed: "Netflix" (TCP) or one of the five
  /// UDP apps (§6.1).
  std::string app = "Netflix";

  Time replay_duration = seconds(45);  ///< §3.4: extended to >= 45 s
  Time base_trace_duration = seconds(15);

  double rtt1_ms = 35.0;  ///< Table 2: RTT_1
  double rtt2_ms = 35.0;  ///< Table 2: RTT_2

  Placement placement = Placement::CommonLink;
  double input_rate_factor = 1.5;   ///< Table 2: input traffic / rate
  double queue_burst_factor = 0.5;  ///< Table 2: queue (x burst)
  double bg_diff_fraction = 0.5;    ///< Table 2: % of background
  double nc_utilization = 0.2;      ///< Table 2: input traffic / link bw

  /// Offered background load per path. Sized so that the replayed traces
  /// are a minority of the collective bottleneck's traffic, as in §6.1
  /// where the (scaled) CAIDA workload dominates the rate-limiter input —
  /// the regime the loss-trend correlation argument assumes.
  Rate bg_rate_per_path = mbps(4.0);

  /// §3.4 trace modifications: Poisson re-timing for UDP, pacing for TCP.
  /// false reproduces the "unmodified traces" ablation of Figure 6.
  bool modified_traces = true;

  /// Parallel TCP connections per replayed session (real streaming traces
  /// contain several flows; WeHe replays them all).
  int tcp_connections = 1;

  /// Congestion control of the replayed TCP session (§7 discusses the
  /// BBR open question; the evaluation itself uses Cubic).
  transport::CongestionControl tcp_cc = transport::CongestionControl::Cubic;

  /// §7 countermeasure against per-flow throttling: craft the two
  /// simultaneous replays so they appear to belong to the same flow and
  /// land in the same per-flow policer. Only meaningful with
  /// Placement::PerFlowCommonLink.
  bool spoof_same_flow = false;

  std::uint64_t seed = 1;

  /// How the background workload is carried: packet-level TCP flows
  /// (default), the fluid-rate aggregate (netsim::FluidSource), or
  /// whatever WEHEY_BG_MODE selects (kEnv). Fluid mode consumes the same
  /// RNG draws as packet mode, so everything downstream of the background
  /// setup is seeded identically in both modes.
  trace::BackgroundMode bg_mode = trace::BackgroundMode::kEnv;

  /// Optional fault plan (not owned; must outlive the run). Null or empty
  /// = no faults — the injection hooks are skipped entirely, so a clean
  /// run is bit-identical to one on a build without the faults subsystem.
  const faults::FaultPlan* fault_plan = nullptr;
};

enum class Phase { SimOriginal, SimInverted, SingleOriginal, SingleInverted };

struct PhaseReport {
  PathReport p1;
  PathReport p2;  ///< empty for single phases
  std::uint64_t limiter_drops = 0;
  /// True when fault injection aborted a replay or damaged an upload in
  /// this phase (see the per-path aborted flags for which one).
  bool faulted = false;
  /// Per-kind counts of what the phase injector actually did (all zero on
  /// a fault-free phase).
  faults::InjectionStats injection;
  /// Simulated time the phase's network ran for (replay + drain grace).
  Time sim_duration = 0;
  /// The supervisor's per-trial budget ended this phase early (event-count
  /// or sim-time ceiling, src/parallel/supervisor.hpp). The phase's
  /// measurements cover only the part before the stop and must not feed
  /// the localization analyses.
  bool budget_exhausted = false;
  std::string budget_reason;  ///< "events" or "sim_time" when exhausted
};

/// Derived quantities shared by phases and by the benches.
struct ScenarioDerived {
  Rate trace_rate = 0;       ///< original trace's average rate
  Rate per_path_input = 0;   ///< trace + background offered per path
  Rate limiter_rate = 0;     ///< configured token rate
  NetworkParams net;         ///< link bandwidths/delays and limiter
};

ScenarioDerived derive(const ScenarioConfig& cfg);

/// Run one phase of the scenario and return per-path reports.
PhaseReport run_phase(const ScenarioConfig& cfg, Phase phase);

/// One WeHeY test as every runner returns it.
struct ReportedTest {
  /// In run order: SimOriginal, SimInverted, then the single phases if
  /// the test ran them.
  std::vector<PhaseReport> phases;
  /// Default when a phase ran out of budget: localize() never ran.
  core::LocalizationResult localization;
  /// Verdict, per-phase stages, injection counts, ground truth, audit and
  /// the runner's scalar values.
  obs::RunReport report;
  /// The phases' merged registries (queue residency, per-flow RTT, link
  /// utilization, ...) — pass to report.to_json(&metrics).
  obs::MetricsRegistry metrics;

  /// Whether the supervisor's per-trial budget stopped a phase.
  bool budget_exhausted() const;
  /// Phases where fault injection actually landed.
  int faulted_phases() const;
};

/// A full WeHeY experiment, all four phases, packaged as a versioned
/// RunReport (obs::kRunReportSchema). `t_diff_history` feeds §4.1's
/// comparison (generate it with experiments::history). The phases run
/// under a dedicated metrics recorder (regardless of the environment), so
/// the report's histograms are always populated; if a recorder is already
/// bound, the run's metrics and timeline are also absorbed into it under a
/// `run_name` track. Deterministic across WEHEY_THREADS. The audit skips
/// only a budget-stopped run.
ReportedTest run_full_experiment_reported(
    const ScenarioConfig& cfg, const std::vector<double>& t_diff_history,
    const std::string& run_name = "full_experiment");

/// The §6.2 test that every §6 table scores (Tables 3-5, Figs 5-7): the
/// two simultaneous phases, then localize() with no p0 replay and no
/// T_diff, which leaves WeHe's confirmation on both paths followed by
/// Alg. 1 at base RTT max(RTT_1, RTT_2). Reported like
/// run_full_experiment_reported; the audit also skips a run whose
/// confirmation failed ("not-confirmed"), as §6.2 excludes it. Values:
/// p1's `retx_rate` and `queue_delay_ms` in the simultaneous original
/// phase.
ReportedTest run_simultaneous_test_reported(const ScenarioConfig& cfg,
                                            const std::string& run_name);

}  // namespace wehey::experiments
