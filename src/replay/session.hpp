// The simultaneous-replay coordination flow of §3.4, end to end, on one
// continuous simulated timeline:
//
//   1. the client runs a standard WeHe test against s0 (original +
//      bit-inverted single replays);
//   2. on detected differentiation — and with the user's consent — the
//      client queries the topology database for a server pair {s1, s2}
//      whose paths converge inside its ISP;
//   3. s1 and s2 replay the original trace simultaneously (started by
//      back-to-back commands), then the bit-inverted trace; throughput,
//      loss and latency are measured along each path, and at the end of
//      each replay the servers perform traceroutes to the client;
//   4. the gathering server verifies the topology was still suitable at
//      the end of the replays — if not, the measurements are discarded
//      and the topology database updated; otherwise the §3.1 analyses run.
//
// Control-plane exchanges (requests, measurement gathering) are modelled
// as fixed-latency hops on the same simulated clock, and every step is
// recorded in a timestamped session log.
//
// A session takes the same steps with or without a fault plan: each
// replay step arms the fault hooks, starts s0 alone or s1 and s2 back to
// back, is measured when its window ends, and is retried after a doubling
// backoff when a replay aborted. A disabled injector answers "no fault"
// at every hook. The attempt bounds are below; the control latency,
// inter-replay gap, control timeout, first backoff and number of server
// pairs are constants of session.cpp.
//
// Fault injector, replay cuts, background and replay recipe are the test
// runners' own (experiments/phase.hpp).
#pragma once

#include <string>
#include <vector>

#include "core/localizer.hpp"
#include "experiments/scenario.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "obs/report.hpp"
#include "topology/database.hpp"

namespace wehey::replay {

/// Attempts per replay step before it counts as exhausted.
inline constexpr int kMaxReplayAttempts = 3;
/// Attempts per control-plane exchange (and topology lookup).
inline constexpr int kMaxControlAttempts = 4;

struct SessionConfig {
  experiments::ScenarioConfig scenario;
  /// Historical T_diff values (from experiments::build_t_diff_history or
  /// the wild equivalent).
  std::vector<double> t_diff_history;
  /// §3.4: the client asks the user before running extra measurements.
  bool user_consents = true;
  /// Simulate inter-domain route churn between the WeHe test and the
  /// simultaneous replays (path 1 detours through path 2's transit).
  bool route_churn = false;
  /// Fault plan executed against this session. Empty (the default) means
  /// every hook answers "no fault": the session takes the same steps and
  /// nothing is retried.
  faults::FaultPlan fault_plan;
};

enum class SessionOutcome {
  NoDifferentiationDetected,  ///< WeHe found nothing; WeHeY never starts
  UserDeclined,               ///< differentiation found, no consent
  NoSuitableTopology,         ///< topology DB has no pair for this client
  TopologyNoLongerSuitable,   ///< end-of-replay traceroutes failed step 4
  NoEvidence,                 ///< analyses found no localizable evidence
  LocalizedWithinIsp,         ///< evidence of differentiation in the ISP
  ReplayRetriesExhausted,     ///< every replay attempt (and pair) aborted
  ControlPlaneUnreachable,    ///< control exchanges kept timing out
  InconclusiveMeasurements,   ///< analyses ran on unusably degraded data
  TracerouteFailed,           ///< gathering-step traceroutes unusable
                              ///< (dropped/garbled hops, §3.3 filters)
  BudgetExhausted,            ///< the supervisor's per-trial budget ended
                              ///< a runaway run (event-count or sim-time
                              ///< ceiling, src/parallel/supervisor.hpp)
};

const char* to_string(SessionOutcome outcome);

struct SessionEvent {
  Time at = 0;
  std::string what;
};

struct SessionResult {
  SessionOutcome outcome = SessionOutcome::NoDifferentiationDetected;
  core::WeheResult initial_wehe;
  core::LocalizationResult localization;
  topology::ServerPair pair;
  std::vector<SessionEvent> events;
  Time finished_at = 0;
  // Hardening counters — all zero on a fault-free session.
  int replay_retries = 0;   ///< replays restarted after a mid-stream abort
  int control_retries = 0;  ///< control exchanges re-sent after a timeout
  int pair_fallbacks = 0;   ///< server-pair replacements mid-session
  /// What the fault injector actually did (all-zero when fault-free).
  faults::InjectionStats injection;
  /// Which ceiling tripped when outcome == BudgetExhausted: "events" or
  /// "sim_time". Empty otherwise.
  std::string budget_reason;
  /// Per-stage simulated-time boundaries (wehe_test, topology_query,
  /// simultaneous_replays, gathering, analysis); stages the session never
  /// reached are absent, the stage it died in ends at finished_at.
  std::vector<obs::StageTiming> stages;
  /// One "replay_attempt" sub-span per scheduled replay window (retries
  /// included), nested inside the wehe_test / simultaneous_replays
  /// stages. Feeds the timeline when tracing.
  std::vector<obs::StageTiming> replay_attempts;
};

/// Seed a topology database from the servers' current traceroutes to the
/// client, exactly as the daily TC ingest would (§3.3).
void seed_topology_database(const experiments::ScenarioConfig& scenario,
                            topology::TopologyDatabase& db);

/// Run one complete WeHe + WeHeY session. The database is read for the
/// server pair and updated if step 4 invalidates it.
SessionResult run_session(const SessionConfig& cfg,
                          topology::TopologyDatabase& db);

/// Package a finished session as a RunReport (verdict, stage timings,
/// retry counters, per-fault-kind injection counts). `run_name` becomes
/// the report's "run" field.
obs::RunReport make_run_report(const SessionConfig& cfg,
                               const SessionResult& result,
                               const std::string& run_name);

}  // namespace wehey::replay
