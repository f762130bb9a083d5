// The one WeHeY test procedure (§3.1, §5, §6), shared by the Table-1
// wild runner (wild.cpp), the §6 runner (scenario.cpp) and, for its fault,
// background and replay steps, the §3.4 session (replay/session.cpp).
//
// A test runs four phases, then localize(). Each phase is one fresh
// simulation, with its RNG draws in this order: the network (one split
// for access jitter), background for path 1 and then path 2, then the
// runner's replays. A runner supplies only what differs: network
// parameters, background rate, trace recipe, replay transports, phase
// names and seeds.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/localizer.hpp"
#include "experiments/network.hpp"
#include "experiments/scenario.hpp"
#include "faults/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace wehey::experiments {

/// The second simultaneous replay starts this long after the first (the
/// back-to-back start commands of §3.4).
inline constexpr Time kSecondReplayOffset = milliseconds(5);
/// Simulated time after the replay window for in-flight traffic to drain.
inline constexpr Time kDrainGrace = seconds(3);

/// A test's phases, in the order reports and stages list them.
inline constexpr Phase kTestPhases[] = {
    Phase::SimOriginal, Phase::SimInverted, Phase::SingleOriginal,
    Phase::SingleInverted};

/// A runner's stage and span names, indexed by Phase.
using PhaseNames = std::array<const char*, 4>;

inline bool is_original(Phase p) {
  return p == Phase::SimOriginal || p == Phase::SingleOriginal;
}

inline bool is_simultaneous(Phase p) {
  return p == Phase::SimOriginal || p == Phase::SimInverted;
}

/// The fault injector of one phase (or session): the plan reseeded from
/// `seed`, so phases fault independently but reproducibly. A null or
/// empty plan gives a disabled injector.
faults::FaultInjector phase_injector(const faults::FaultPlan* plan,
                                     std::uint64_t seed);

/// Arm the network's one-shot cut and/or storm if the injector faults the
/// replay on `path`. The next start_*_replay consumes them, so call this
/// immediately before each one.
void arm_replay_cut(faults::FaultInjector& inj, FigureOneNetwork& net,
                    int path, Time replay_duration);

/// One background workload per path, path 1 first, on the carrier `mode`
/// resolves to; with `diff_fraction`, each path's flows are marked right
/// after its draw. Both carriers draw the same numbers from `rng`.
void attach_backgrounds(FigureOneNetwork& net,
                        const trace::BackgroundConfig& bg,
                        std::optional<double> diff_fraction,
                        trace::BackgroundMode mode, Rng& rng);

/// What a runner fixes for one phase.
struct PhaseSpec {
  Phase phase;
  const PhaseNames& names;
  std::uint64_t seed;  ///< the test's; the phase seed derives from it
  const NetworkParams& net;
  trace::BackgroundConfig bg;  ///< duration is set to replay + drain
  std::optional<double> bg_diff_fraction;
  trace::BackgroundMode bg_mode;
  Time replay_duration;
  const faults::FaultPlan* fault_plan;
};

/// A phase's network with its background attached, handed to the
/// runner's replay step. `rng` is past the network and background draws.
struct PhaseRun {
  FigureOneNetwork& net;
  Rng& rng;
  faults::FaultInjector& injector;
  Time replay_duration;
  std::array<int, 2> measured{};  ///< replay ids on p1, p2

  /// Arm the fault step, then start the measured replay on `path` over
  /// the trace's transport (TCP: `tcp`, `connections`): p1 at time 0, p2
  /// kSecondReplayOffset later.
  void start(int path, const trace::AppTrace& t,
             const transport::TcpConfig& tcp, int connections,
             netsim::FlowId policer_key = 0);
};

/// One phase: network, background, the runner's replays, the run through
/// the drain grace, then reports, upload faults, counters and the span.
PhaseReport run_test_phase(
    const PhaseSpec& spec, const std::function<void(PhaseRun&)>& start_replays);

/// What a runner fixes for one test.
struct TestSpec {
  std::function<PhaseReport(Phase)> run_phase;
  const PhaseNames& phase_names;
  std::uint64_t seed;
  std::uint64_t analysis_seed;  ///< localize()'s RNG
  const faults::FaultPlan* fault_plan;
  const std::vector<double>& t_diff;
  Time base_rtt;
};

struct TestRun {
  std::vector<PhaseReport> phases;  ///< kTestPhases order
  core::LocalizationInput input;
  core::LocalizationResult localization;  ///< default if never localized
  /// The first budget-exhausted phase in kTestPhases order.
  bool budget_exhausted = false;
  std::string budget_reason;
  faults::InjectionStats injection;  ///< summed over the phases
  int faulted_phases = 0;
  std::uint64_t limiter_drops = 0;
};

/// The four phases on the parallel engine (serial inside an outer sweep)
/// and the localization input assembled from them; no verdict.
TestRun run_test_phases(const TestSpec& spec);

/// run_test_phases, then localize() unless a phase ran out of budget.
TestRun run_test(const TestSpec& spec);

struct ReportedTest {
  TestRun run;
  obs::RunReport report;
  obs::MetricsRegistry metrics;  ///< the phases' merged registries
};

/// run_test under a dedicated metrics recorder, with the report fields
/// every test shares filled in: run, seed, fault plan, verdict and
/// reason, decision, a stage per phase, injection. A
/// bound outer recorder absorbs the test under a `run_name` track. The
/// runner adds cell, ground truth, audit and values.
ReportedTest run_reported_test(const TestSpec& spec,
                               const std::string& run_name);

/// T_diff from single-replay mean throughputs: the relative difference of
/// every pair (§4.1 pairs every two nearby tests).
std::vector<double> t_diff_pairs(const std::vector<double>& means);

// The §6 replay recipe, used by run_phase and the session.

/// The recorded app trace: a pure function of the seed.
trace::AppTrace scenario_trace(const ScenarioConfig& cfg);
/// §3.4 preparation: extension to the replay duration and, for UDP under
/// `modified_traces`, Poisson re-timing (TCP paces in the sender).
trace::AppTrace prepare_replay(const trace::AppTrace& t,
                               const ScenarioConfig& cfg, Rng& rng);
transport::TcpConfig replay_tcp_config(const ScenarioConfig& cfg);
/// The per-path background; the caller sets its duration.
trace::BackgroundConfig scenario_background(const ScenarioConfig& cfg);

}  // namespace wehey::experiments
