// Models of the five real cellular ISPs of the in-the-wild evaluation
// (§5, Table 1).
//
// All five apply *per-client* throttling of the targeted streaming
// services (disclosed as e.g. "video streaming at DVD quality"): the
// client's service traffic passes a policer dedicated to that client.
// Four ISPs throttle unconditionally; the fifth (ISP5) switches to
// fixed-rate throttling only after a received-traffic criterion is met —
// the behaviour the paper hypothesizes to explain Table 1's 16.28 % and
// illustrates in Figure 4.
//
// The wild network is the Figure-1 topology with: the per-client limiter
// on the common link (inside the ISP), a time-varying cellular access
// link (the source of normal throughput variation T_diff measures), and
// only light non-differentiated background (the per-client queue carries
// the client's own traffic).
//
// The test procedure (phases, localize, report fill) is the one the §6
// runner uses too, in experiments/phase.hpp.
#pragma once

#include <string>
#include <vector>

#include "core/localizer.hpp"
#include "experiments/scenario.hpp"

namespace wehey::experiments {

struct IspModel {
  std::string name;
  /// Limiter rate as a fraction of the trace's average rate (< 1 so that
  /// the original replay is visibly throttled).
  double throttle_factor = 0.6;
  double queue_burst_factor = 0.5;
  /// Cellular access link: nominal capacity as a multiple of the trace
  /// rate, plus lognormal capacity jitter.
  double access_rate_factor = 4.0;
  double access_jitter = 0.3;
  /// ISP5 behaviour: no throttling until `trigger_seconds` worth of trace
  /// bytes have passed, then fixed-rate throttling.
  bool delayed_fixed_rate = false;
  double trigger_seconds = 20.0;
};

/// The five ISP models used by the Table-1 bench (ISP5 is the delayed
/// fixed-rate one).
std::vector<IspModel> default_isp_models();

struct WildConfig {
  IspModel isp;
  std::string app = "Netflix";  ///< wild tests replay TCP streaming traces
  Time replay_duration = seconds(45);
  double rtt_ms = 50.0;
  Rate bg_rate_per_path = kbps(300);  ///< the client's other light traffic
  std::uint64_t seed = 1;

  /// Background carrier: packet flows (default), the fluid-rate aggregate,
  /// or whatever WEHEY_BG_MODE selects (kEnv). Same RNG-draw discipline as
  /// ScenarioConfig::bg_mode.
  trace::BackgroundMode bg_mode = trace::BackgroundMode::kEnv;

  /// Optional fault plan (not owned; must outlive the run). Null or empty
  /// = no faults.
  const faults::FaultPlan* fault_plan = nullptr;
};

/// The Figure-1 parameters of a wild test's network: per-client limiter
/// (or ISP5's delayed TBF) on the common link plus the jittery cellular
/// access link. Exposed for benches that rebuild the wild network
/// stand-alone (e.g. bench_background's operating points).
NetworkParams wild_network_params(const WildConfig& cfg, Rate trace_rate);

/// The trace a wild test replays: the config's app, recorded under its
/// seed, bit-inverted for the inverted phases and extended to
/// `replay_duration`.
trace::AppTrace wild_replay_trace(const WildConfig& cfg, bool inverted);

/// One phase of a wild test. `third_replay` adds a concurrent third
/// original replay (the §5 sanity check) during simultaneous phases.
PhaseReport run_wild_phase(const WildConfig& cfg, Phase phase,
                           bool third_replay = false);

/// T_diff from repeated single bit-inverted replays over the wild network
/// (stand-in for the public WeHe test archive).
std::vector<double> build_wild_t_diff(const WildConfig& cfg,
                                      std::size_t replays = 14);

/// A Table-1 test: a full WeHeY run, packaged as a versioned RunReport
/// (stages = the four wild phases, per-kind injection, ground truth,
/// audit, scalar values) plus the phases' merged metrics registries. A
/// "basic" test succeeds when it localizes. A "sanity check" test
/// (`sanity_check`) adds a third server replaying a third original trace
/// concurrently; correct behaviour is then to NOT detect a common
/// bottleneck. Like run_full_experiment_reported: the phases run under a
/// dedicated metrics recorder (regardless of the environment) so the
/// report's histograms are always populated; if a recorder is already
/// bound, the run is also absorbed into it under a `run_name` track.
/// Deterministic across WEHEY_THREADS.
ReportedTest run_wild_test_reported(const WildConfig& cfg,
                                    const std::vector<double>& t_diff,
                                    bool sanity_check = false,
                                    const std::string& run_name =
                                        "wild_test");

}  // namespace wehey::experiments
