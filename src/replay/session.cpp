#include "replay/session.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "common/check.hpp"
#include "experiments/decision.hpp"
#include "experiments/ground_truth.hpp"
#include "experiments/phase.hpp"
#include "faults/injector.hpp"
#include "obs/recorder.hpp"
#include "parallel/supervisor.hpp"
#include "topology/construction.hpp"

namespace wehey::replay {

using experiments::FigureOneNetwork;
using experiments::kDrainGrace;
using experiments::kSecondReplayOffset;

namespace {

/// The session's client address (the traceroute destination of the
/// Figure-1 network).
const char* kClientIp = "100.0.1.77";

/// Runs `f` when the enclosing scope ends, on every return path.
template <typename F>
struct OnScopeExit {
  F f;
  ~OnScopeExit() { f(); }
};
template <typename F>
OnScopeExit(F) -> OnScopeExit<F>;

}  // namespace

const char* to_string(SessionOutcome outcome) {
  switch (outcome) {
    case SessionOutcome::NoDifferentiationDetected:
      return "no differentiation detected";
    case SessionOutcome::UserDeclined: return "user declined";
    case SessionOutcome::NoSuitableTopology: return "no suitable topology";
    case SessionOutcome::TopologyNoLongerSuitable:
      return "topology no longer suitable";
    case SessionOutcome::NoEvidence: return "no evidence";
    case SessionOutcome::LocalizedWithinIsp: return "localized within ISP";
    case SessionOutcome::ReplayRetriesExhausted:
      return "replay retries exhausted";
    case SessionOutcome::ControlPlaneUnreachable:
      return "control plane unreachable";
    case SessionOutcome::InconclusiveMeasurements:
      return "inconclusive measurements";
    case SessionOutcome::TracerouteFailed: return "traceroute failed";
    case SessionOutcome::BudgetExhausted: return "budget exhausted";
  }
  return "?";
}

void seed_topology_database(const experiments::ScenarioConfig& scenario,
                            topology::TopologyDatabase& db) {
  // The daily TC ingest (§3.3), fed by the servers' traceroutes.
  netsim::Simulator sim;
  Rng rng(scenario.seed);
  const auto derived = experiments::derive(scenario);
  FigureOneNetwork net(sim, derived.net, rng);
  topology::TopologyConstructor tc;
  // The deployment runs standby measurement servers besides s1/s2 so the
  // database always holds more than one suitable pair per client prefix —
  // without them the §3.4 pair fallback has nothing to fall back to.
  db.ingest(tc.construct({net.traceroute(1), net.traceroute(2),
                          net.standby_traceroute(3)}));
}

SessionResult run_session(const SessionConfig& cfg,
                          topology::TopologyDatabase& db) {
  const auto& scenario = cfg.scenario;
  const Time duration = scenario.replay_duration;
  const Time gap = cfg.inter_replay_gap;
  const Time rpc = cfg.control_latency;

  SessionResult result;
  auto log = [&](Time at, std::string what) {
    result.events.push_back({at, std::move(what)});
  };

  netsim::Simulator sim;
  parallel::install_trial_budget(sim);
  const std::uint64_t seed = scenario.seed * 1000003ULL + 77;
  Rng rng(seed);
  const auto derived = experiments::derive(scenario);
  FigureOneNetwork net(sim, derived.net, rng);

  // Fill in a terminal state; callers `return result` right after.
  auto finish = [&](SessionOutcome outcome, Time at) {
    result.outcome = outcome;
    result.finished_at = at;
  };
  // The BudgetExhausted terminal state. Checked after every sim.run so a
  // runaway trial (e.g. the event-storm livelock) ends with a
  // machine-readable outcome instead of spinning forever.
  auto budget_bail = [&](const char* who) {
    log(sim.now(), std::string(who) + "trial budget exhausted (" +
                       sim.budget_reason() + "); session ends");
    result.budget_reason = sim.budget_reason();
    finish(SessionOutcome::BudgetExhausted, sim.now());
  };

  faults::FaultInjector injector =
      experiments::phase_injector(&cfg.fault_plan, seed);

  // Stage boundaries on the simulated clock, recorded as the pipeline
  // advances (-1 = never reached). A scope-exit finalizer folds them into
  // result.stages — and publishes counters and timeline spans to the
  // obs::Recorder bound to this thread, if any — on every return path.
  Time wehe_done = -1, lookup_done = -1, replays_done = -1, gather_done = -1;
  const OnScopeExit finalize{[&] {
    result.injection = injector.stats();
    auto add = [&](const char* name, Time s, Time e) {
      if (s < 0) return;
      // An unreached boundary means the session died inside this stage.
      result.stages.push_back({name, s, e >= s ? e : result.finished_at});
    };
    add("wehe_test", 0, wehe_done);
    add("topology_query", wehe_done, lookup_done);
    add("simultaneous_replays", lookup_done, replays_done);
    add("gathering", replays_done, gather_done);
    add("analysis", gather_done, result.finished_at);
    obs::Recorder* rec = obs::Recorder::current();
    if (rec == nullptr) return;
    net.snapshot_metrics();
    if (rec->metrics_on()) {
      auto& m = rec->metrics();
      m.counter("session.count").inc();
      m.counter("session.replay_retries")
          .inc(static_cast<std::uint64_t>(result.replay_retries));
      m.counter("session.control_retries")
          .inc(static_cast<std::uint64_t>(result.control_retries));
      m.counter("session.pair_fallbacks")
          .inc(static_cast<std::uint64_t>(result.pair_fallbacks));
      m.counter(std::string("session.outcome.") +
                to_string(result.outcome))
          .inc();
      for (const auto& [kind, count] : result.injection.by_kind()) {
        if (count > 0) {
          m.counter(std::string("faults.") + kind)
              .inc(static_cast<std::uint64_t>(count));
        }
      }
    }
    if (rec->trace_on()) {
      auto& tl = rec->timeline();
      for (const auto& st : result.stages) {
        tl.span(st.name, "session", st.sim_start, st.sim_end);
      }
      for (const auto& st : result.replay_attempts) {
        tl.span(st.name, "replay", st.sim_start, st.sim_end);
      }
      for (const auto& ev : result.events) {
        tl.instant(ev.what, "session", ev.at);
      }
    }
  }};

  // Background spans the whole session (all four replays plus gaps).
  // Retried replays stretch the timeline, so a faulted session needs a
  // proportionally longer background.
  Time horizon = 4 * (duration + gap) + 12 * rpc + seconds(10);
  if (injector.enabled()) {
    horizon *= cfg.max_replay_attempts * cfg.max_pair_attempts + 1;
  }
  trace::BackgroundConfig bg = experiments::scenario_background(scenario);
  bg.duration = horizon;
  experiments::attach_backgrounds(net, bg, scenario.bg_diff_fraction,
                                  scenario.bg_mode, rng);

  const auto base = experiments::scenario_trace(scenario);
  const auto tcp = experiments::replay_tcp_config(scenario);
  auto start_replay = [&](int path, bool inverted, Time at) {
    const auto replay = experiments::prepare_replay(
        inverted ? trace::bit_invert(base) : base, scenario, rng);
    if (replay.transport == trace::Transport::Tcp) {
      return net.start_tcp_replay(path, replay, at, tcp,
                                  scenario.tcp_connections);
    }
    return net.start_udp_replay(path, replay, at);
  };
  // A control-plane exchange that a fault can drop (the client waits out
  // its timeout and re-sends, with doubling backoff) or delay. Advances
  // `now` accordingly; false = every attempt was dropped.
  auto control_exchange = [&](Time& now, const std::string& what) {
    if (!injector.enabled()) return true;
    Time backoff = cfg.retry_backoff;
    for (int attempt = 1; attempt <= cfg.max_control_attempts; ++attempt) {
      const auto fault = injector.on_control_exchange();
      if (!fault.dropped) {
        if (fault.extra_delay > 0) {
          now += fault.extra_delay;
          log(now, what + ": answer delayed");
        }
        return true;
      }
      now += cfg.control_timeout;
      if (attempt < cfg.max_control_attempts) {
        ++result.control_retries;
        log(now, what + ": timed out; re-sending");
        now += backoff;
        backoff *= 2;
      } else {
        log(now, what + ": timed out; giving up");
      }
    }
    return false;
  };

  // --- Phase 1: the standard WeHe test against s0 (= path 1). ---
  experiments::PathReport p0_orig, p0_inv;
  Time t_analysis = 0;
  log(0, "client -> s0: run WeHe test");
  if (!injector.enabled()) {
    const Time t_orig = rpc;
    const int id_p0_orig = start_replay(1, false, t_orig);
    const Time t_inv = t_orig + duration + gap;
    const int id_p0_inv = start_replay(1, true, t_inv);
    result.replay_attempts.push_back(
        {"replay_attempt", t_orig, t_orig + duration});
    result.replay_attempts.push_back(
        {"replay_attempt", t_inv, t_inv + duration});
    t_analysis = t_inv + duration + rpc;
    sim.run(t_analysis);
    if (sim.budget_exhausted()) {
      budget_bail("");
      return result;
    }
    log(t_orig, "s0: original single replay");
    log(t_inv, "s0: bit-inverted single replay");
    p0_orig = net.report(id_p0_orig, t_orig, duration);
    p0_inv = net.report(id_p0_inv, t_inv, duration);
  } else {
    Time t = rpc;
    auto run_single = [&](bool inverted, const char* what)
        -> std::optional<experiments::PathReport> {
      Time backoff = cfg.retry_backoff;
      for (int attempt = 1; attempt <= cfg.max_replay_attempts; ++attempt) {
        experiments::arm_replay_cut(injector, net, 1, duration);
        const int id = start_replay(1, inverted, t);
        result.replay_attempts.push_back(
            {"replay_attempt", t, t + duration});
        sim.run(t + duration);
        if (sim.budget_exhausted()) return std::nullopt;
        auto rep = net.report(id, t, duration);
        log(t, std::string("s0: ") + what + " single replay");
        if (!rep.aborted) {
          t += duration + gap;
          return rep;
        }
        log(rep.aborted_at,
            std::string("s0: ") + what + " replay aborted mid-stream");
        if (attempt < cfg.max_replay_attempts) {
          ++result.replay_retries;
          log(rep.aborted_at, "s0: retrying after backoff");
        }
        t += duration + backoff;
        backoff *= 2;
      }
      return std::nullopt;
    };
    const auto orig = run_single(false, "original");
    const auto inv =
        orig.has_value() ? run_single(true, "bit-inverted") : std::nullopt;
    if (!inv.has_value()) {
      if (sim.budget_exhausted()) {
        budget_bail("s0: ");
        return result;
      }
      log(sim.now(), "s0: replay retries exhausted; session ends");
      finish(SessionOutcome::ReplayRetriesExhausted, sim.now());
      return result;
    }
    t_analysis = t - gap + rpc;
    sim.run(t_analysis);
    p0_orig = *orig;
    p0_inv = *inv;
  }

  wehe_done = t_analysis;
  result.initial_wehe =
      core::detect_differentiation(p0_orig.meas, p0_inv.meas);
  if (!result.initial_wehe.differentiation) {
    log(t_analysis, "WeHe: no differentiation; session ends");
    finish(SessionOutcome::NoDifferentiationDetected, t_analysis);
    return result;
  }
  log(t_analysis, "WeHe: differentiation detected (KS p=" +
                      std::to_string(result.initial_wehe.p_value) + ")");

  // --- User consent (§3.4: the client asks the user). ---
  if (!cfg.user_consents) {
    log(t_analysis, "user declined the localization test");
    finish(SessionOutcome::UserDeclined, t_analysis);
    return result;
  }

  // --- Topology query (one control round-trip to the DB). ---
  Time t_lookup = t_analysis + 2 * rpc;
  if (!control_exchange(t_lookup, "topology DB query")) {
    finish(SessionOutcome::ControlPlaneUnreachable, t_lookup);
    return result;
  }
  std::optional<topology::ServerPair> pair;
  {
    Time backoff = cfg.retry_backoff;
    for (int attempt = 1;; ++attempt) {
      if (injector.enabled() && injector.on_topology_lookup()) {
        if (attempt >= cfg.max_control_attempts) {
          log(t_lookup,
              "topology DB: server pair still unavailable; giving up");
          finish(SessionOutcome::NoSuitableTopology, t_lookup);
          return result;
        }
        ++result.control_retries;
        log(t_lookup,
            "topology DB: server pair transiently unavailable; retrying");
        t_lookup += backoff;
        backoff *= 2;
        continue;
      }
      pair = db.pick(kClientIp);
      break;
    }
  }
  if (!pair.has_value()) {
    log(t_lookup, "topology DB: no suitable server pair for this client");
    finish(SessionOutcome::NoSuitableTopology, t_lookup);
    return result;
  }
  result.pair = *pair;
  log(t_lookup, "topology DB: selected servers " + pair->server1 + " + " +
                    pair->server2 + " (converge at " +
                    pair->convergence_ip + ")");
  lookup_done = t_lookup;

  if (cfg.route_churn) {
    net.set_route_churn(true);
    // The detour is silent: nothing in the control plane notices until
    // the end-of-replay traceroutes.
  }

  // --- Phase 2: simultaneous replays, started back-to-back. ---
  netsim::ReplayMeasurement m_p1o, m_p2o, m_p1i, m_p2i;
  Time t_end = 0;
  if (!injector.enabled()) {
    const Time t_sim_orig = t_lookup + rpc;
    const int id_p1_orig = start_replay(1, false, t_sim_orig);
    const int id_p2_orig =
        start_replay(2, false, t_sim_orig + kSecondReplayOffset);
    const Time t_sim_inv = t_sim_orig + duration + gap;
    const int id_p1_inv = start_replay(1, true, t_sim_inv);
    const int id_p2_inv =
        start_replay(2, true, t_sim_inv + kSecondReplayOffset);
    result.replay_attempts.push_back(
        {"replay_attempt", t_sim_orig,
         t_sim_orig + kSecondReplayOffset + duration});
    result.replay_attempts.push_back(
        {"replay_attempt", t_sim_inv,
         t_sim_inv + kSecondReplayOffset + duration});
    t_end = t_sim_inv + duration + kDrainGrace;
    sim.run(t_end);
    if (sim.budget_exhausted()) {
      budget_bail("");
      return result;
    }
    log(t_sim_orig, "s1+s2: original simultaneous replay");
    log(t_sim_inv, "s1+s2: bit-inverted simultaneous replay");
    m_p1o = net.report(id_p1_orig, t_sim_orig, duration).meas;
    m_p2o = net.report(id_p2_orig, t_sim_orig + kSecondReplayOffset, duration)
                .meas;
    m_p1i = net.report(id_p1_inv, t_sim_inv, duration).meas;
    m_p2i = net.report(id_p2_inv, t_sim_inv + kSecondReplayOffset, duration)
                .meas;
  } else {
    Time t = t_lookup + rpc;
    // One simultaneous phase with bounded retry; on success the two
    // measurements land in (out1, out2).
    auto run_pair_phase = [&](bool inverted, const char* what,
                              netsim::ReplayMeasurement& out1,
                              netsim::ReplayMeasurement& out2) {
      Time backoff = cfg.retry_backoff;
      for (int attempt = 1; attempt <= cfg.max_replay_attempts; ++attempt) {
        experiments::arm_replay_cut(injector, net, 1, duration);
        const int id1 = start_replay(1, inverted, t);
        experiments::arm_replay_cut(injector, net, 2, duration);
        const int id2 = start_replay(2, inverted, t + kSecondReplayOffset);
        result.replay_attempts.push_back(
            {"replay_attempt", t, t + kSecondReplayOffset + duration});
        sim.run(t + kSecondReplayOffset + duration);
        if (sim.budget_exhausted()) return false;
        const auto r1 = net.report(id1, t, duration);
        const auto r2 = net.report(id2, t + kSecondReplayOffset, duration);
        log(t, std::string("s1+s2: ") + what + " simultaneous replay");
        if (!r1.aborted && !r2.aborted) {
          out1 = r1.meas;
          out2 = r2.meas;
          t += duration + gap;
          return true;
        }
        log(r1.aborted ? r1.aborted_at : r2.aborted_at,
            std::string(r1.aborted ? "s1" : "s2") + ": " + what +
                " replay aborted mid-stream");
        if (attempt < cfg.max_replay_attempts) {
          ++result.replay_retries;
          log(sim.now(), "s1+s2: retrying after backoff");
        }
        t += duration + backoff;
        backoff *= 2;
      }
      return false;
    };
    bool phases_done = false;
    for (int pair_attempt = 1; pair_attempt <= cfg.max_pair_attempts;
         ++pair_attempt) {
      if (run_pair_phase(false, "original", m_p1o, m_p2o) &&
          run_pair_phase(true, "bit-inverted", m_p1i, m_p2i)) {
        phases_done = true;
        break;
      }
      if (sim.budget_exhausted()) break;
      if (pair_attempt >= cfg.max_pair_attempts) break;
      // §3.4 fallback: ask the topology database for a different suitable
      // pair and restart the simultaneous phases against it.
      const auto candidates = db.lookup(kClientIp);
      const auto alt = std::find_if(
          candidates.begin(), candidates.end(),
          [&](const topology::ServerPair& p) {
            return p.server1 != pair->server1 || p.server2 != pair->server2;
          });
      if (alt == candidates.end()) {
        log(sim.now(), "topology DB: no alternate server pair available");
        break;
      }
      pair = *alt;
      result.pair = *pair;
      ++result.pair_fallbacks;
      log(sim.now(), "falling back to fresh server pair " + pair->server1 +
                         " + " + pair->server2);
    }
    if (!phases_done) {
      if (sim.budget_exhausted()) {
        budget_bail("");
        return result;
      }
      log(sim.now(), "simultaneous replay retries exhausted; session ends");
      finish(SessionOutcome::ReplayRetriesExhausted, sim.now());
      return result;
    }
    t_end = sim.now() + kDrainGrace;
    sim.run(t_end);
    if (sim.budget_exhausted()) {
      budget_bail("");
      return result;
    }
  }

  // --- End-of-replay traceroutes, gathered at s1 (§3.4 steps 3-4). ---
  replays_done = t_end;
  Time t_gather = t_end + 2 * rpc;
  if (!control_exchange(t_gather, "measurement gathering")) {
    finish(SessionOutcome::ControlPlaneUnreachable, t_gather);
    return result;
  }
  auto tr1 = net.traceroute(1);
  auto tr2 = net.traceroute(2);
  if (injector.enabled()) {
    // The topology query itself can come back damaged: probes black-holed
    // near the client or hops reporting aliased addresses.
    bool damaged = injector.on_traceroute(1, tr1);
    damaged |= injector.on_traceroute(2, tr2);
    if (damaged) log(t_gather, "gathering-step traceroutes arrived damaged");
  }
  // Re-apply the §3.3 filter conditions before the pair check: a record
  // that fails them says nothing about the topology (the *query* failed),
  // so the pair is kept in the database and the session ends with its own
  // outcome instead of TopologyNoLongerSuitable.
  const bool tr_usable =
      tr1.last_hop_matches_dst_asn() && tr1.alias_consistent() &&
      tr2.last_hop_matches_dst_asn() && tr2.alias_consistent();
  if (!tr_usable) {
    log(t_gather,
        "end-of-replay traceroutes unusable (dropped or aliased hops); "
        "measurements discarded");
    finish(SessionOutcome::TracerouteFailed, t_gather);
    return result;
  }
  std::string convergence;
  const bool still_suitable = topology::suitable_pair(
      tr1, tr2, FigureOneNetwork::kClientAsn, &convergence);
  if (!still_suitable) {
    log(t_gather,
        "end-of-replay traceroutes: paths no longer converge only inside "
        "the ISP; measurements discarded, topology DB updated");
    db.invalidate(kClientIp, *pair);
    finish(SessionOutcome::TopologyNoLongerSuitable, t_gather);
    return result;
  }
  log(t_gather, "end-of-replay traceroutes: topology still suitable "
                "(converging at " + convergence + ")");
  gather_done = t_gather;

  // --- Analyses (§3.1 operations 3 and 4), run at the gathering server. ---
  core::LocalizationInput input;
  input.p0_original = p0_orig.meas;
  input.p0_inverted = p0_inv.meas;
  input.p1_original = std::move(m_p1o);
  input.p2_original = std::move(m_p2o);
  input.p1_inverted = std::move(m_p1i);
  input.p2_inverted = std::move(m_p2i);
  if (injector.enabled()) {
    // The servers upload their measurement series to the gathering server;
    // a fault can truncate, corrupt or clock-skew an upload in flight.
    bool damaged = injector.on_measurement_upload(1, input.p1_original);
    damaged |= injector.on_measurement_upload(2, input.p2_original);
    damaged |= injector.on_measurement_upload(1, input.p1_inverted);
    damaged |= injector.on_measurement_upload(2, input.p2_inverted);
    if (damaged) log(t_gather, "uploaded measurement series arrived damaged");
  }
  input.t_diff_history = cfg.t_diff_history;
  input.base_rtt = std::max(milliseconds(scenario.rtt1_ms),
                            milliseconds(scenario.rtt2_ms));

  Rng analysis_rng(scenario.seed * 2654435761ULL + 9);
  result.localization = core::localize(input, analysis_rng);
  result.finished_at = t_gather;
  if (result.localization.verdict ==
      core::Verdict::EvidenceWithinTargetArea) {
    result.outcome = SessionOutcome::LocalizedWithinIsp;
    log(t_gather,
        result.localization.mechanism ==
                core::Mechanism::PerClientThrottling
            ? "verdict: localized (per-client throttling)"
            : "verdict: localized (collective throttling)");
  } else if (result.localization.verdict == core::Verdict::Inconclusive) {
    result.outcome = SessionOutcome::InconclusiveMeasurements;
    log(t_gather,
        std::string("verdict: inconclusive (") +
            core::to_string(result.localization.inconclusive_reason) + ")");
  } else {
    result.outcome = SessionOutcome::NoEvidence;
    log(t_gather, "verdict: no evidence beyond WeHe's detection");
  }
  return result;
}

obs::RunReport make_run_report(const SessionConfig& cfg,
                               const SessionResult& result,
                               const std::string& run_name) {
  obs::RunReport report;
  report.run = run_name;
  report.seed = cfg.scenario.seed;
  report.fault_plan = cfg.fault_plan.name;
  report.verdict = to_string(result.outcome);
  if (result.outcome == SessionOutcome::InconclusiveMeasurements) {
    report.reason =
        core::to_string(result.localization.inconclusive_reason);
  } else if (result.outcome == SessionOutcome::BudgetExhausted) {
    report.reason = std::string("budget:") + result.budget_reason;
  }
  // v4 verdict provenance. Sessions that never reached localize()
  // (budget-exhausted, pre-analysis aborts) carry the default trace,
  // which serializes as the empty-but-valid decision block.
  report.decision = experiments::decision_section(result.localization.trace);
  // v5: the session's ground truth comes from its scenario's limiter
  // placement; sessions that never reached a verdict (budget) audit as
  // skipped.
  report.ground_truth = experiments::ground_truth_section(
      cfg.scenario, experiments::derive(cfg.scenario));
  report.audit = obs::classify_audit(
      report.ground_truth,
      result.outcome == SessionOutcome::LocalizedWithinIsp,
      /*mechanism_mismatch=*/false,
      result.outcome == SessionOutcome::BudgetExhausted, report.decision);
  report.stages = result.stages;
  report.values["replay_retries"] = result.replay_retries;
  report.values["control_retries"] = result.control_retries;
  report.values["pair_fallbacks"] = result.pair_fallbacks;
  report.values["finished_at_ms"] =
      static_cast<double>(result.finished_at) / kMillisecond;
  report.values["events_logged"] =
      static_cast<double>(result.events.size());
  for (const auto& [kind, count] : result.injection.by_kind()) {
    report.injection[kind] = count;
  }
  return report;
}

}  // namespace wehey::replay
