#include "experiments/phase.hpp"

#include <algorithm>

#include "experiments/decision.hpp"
#include "obs/recorder.hpp"
#include "parallel/supervisor.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/apps.hpp"

namespace wehey::experiments {

faults::FaultInjector phase_injector(const faults::FaultPlan* plan,
                                     std::uint64_t seed) {
  if (plan == nullptr || !plan->enabled()) return faults::FaultInjector{};
  faults::FaultPlan derived = *plan;
  derived.seed = plan->seed * 0x100000001b3ULL ^ seed;
  return faults::FaultInjector(derived);
}

void arm_replay_cut(faults::FaultInjector& inj, FigureOneNetwork& net,
                    int path, Time replay_duration) {
  if (!inj.enabled()) return;
  const auto fault = inj.on_replay_start(path);
  if (fault.storm) {
    ReplayStorm storm;
    storm.after = static_cast<Time>(static_cast<double>(replay_duration) *
                                    fault.storm_at_fraction);
    storm.interval = fault.storm_interval;
    net.set_next_replay_storm(storm);
  }
  if (!fault.abort) return;
  ReplayCut cut;
  cut.after = static_cast<Time>(static_cast<double>(replay_duration) *
                                fault.at_fraction);
  cut.after_bytes = fault.after_bytes;
  net.set_next_replay_cut(cut);
}

void attach_backgrounds(FigureOneNetwork& net,
                        const trace::BackgroundConfig& bg,
                        std::optional<double> diff_fraction,
                        trace::BackgroundMode mode, Rng& rng) {
  const bool fluid =
      trace::resolve_background_mode(mode) == trace::BackgroundMode::kFluid;
  for (int path = 1; path <= 2; ++path) {
    auto flows = trace::generate_background(bg, rng);
    if (diff_fraction) trace::mark_differentiated(flows, *diff_fraction, rng);
    if (fluid) {
      net.attach_fluid_background(path, trace::fluid_profile(flows, bg));
    } else {
      net.attach_background(path, flows);
    }
  }
}

void PhaseRun::start(int path, const trace::AppTrace& t,
                     const transport::TcpConfig& tcp, int connections,
                     netsim::FlowId policer_key) {
  arm_replay_cut(injector, net, path, replay_duration);
  const Time at = path == 1 ? 0 : kSecondReplayOffset;
  measured[path - 1] =
      t.transport == trace::Transport::Tcp
          ? net.start_tcp_replay(path, t, at, tcp, connections, policer_key)
          : net.start_udp_replay(path, t, at, policer_key);
}

PhaseReport run_test_phase(
    const PhaseSpec& spec, const std::function<void(PhaseRun&)>& start_replays) {
  const std::uint64_t seed =
      spec.seed * 1000003ULL + static_cast<std::uint64_t>(spec.phase) * 7919ULL;
  Rng rng(seed);
  auto injector = phase_injector(spec.fault_plan, seed);

  netsim::Simulator sim;
  parallel::install_trial_budget(sim);
  FigureOneNetwork net(sim, spec.net, rng);

  // A fresh background segment per phase, as each replay in the paper
  // draws a different trace segment.
  trace::BackgroundConfig bg = spec.bg;
  bg.duration = spec.replay_duration + kDrainGrace;
  attach_backgrounds(net, bg, spec.bg_diff_fraction, spec.bg_mode, rng);

  PhaseRun run{net, rng, injector, spec.replay_duration};
  start_replays(run);
  net.run(spec.replay_duration, kDrainGrace);

  const bool simultaneous = is_simultaneous(spec.phase);
  PhaseReport rep;
  rep.budget_exhausted = sim.budget_exhausted();
  rep.budget_reason = sim.budget_reason();
  rep.p1 = net.report(run.measured[0], 0, spec.replay_duration);
  if (simultaneous) {
    rep.p2 =
        net.report(run.measured[1], kSecondReplayOffset, spec.replay_duration);
  }
  rep.limiter_drops = net.limiter_drops();
  rep.sim_duration = sim.now();
  if (injector.enabled()) {
    // The uploads of this phase's measurements to the gathering server
    // pass through the injector (truncation, corruption, clock skew).
    bool upload_faulted = injector.on_measurement_upload(1, rep.p1.meas);
    if (simultaneous) {
      upload_faulted |= injector.on_measurement_upload(2, rep.p2.meas);
    }
    rep.faulted = upload_faulted || rep.p1.aborted || rep.p2.aborted;
  }
  rep.injection = injector.stats();
  if (obs::Recorder* rec = obs::Recorder::current()) {
    net.snapshot_metrics();
    if (rec->metrics_on()) {
      auto& m = rec->metrics();
      m.counter("phase.count").inc();
      if (rep.faulted) m.counter("phase.faulted").inc();
      if (rep.budget_exhausted) m.counter("phase.budget_exhausted").inc();
      for (const auto& [kind, count] : rep.injection.by_kind()) {
        if (count > 0) {
          m.counter(std::string("faults.") + kind)
              .inc(static_cast<std::uint64_t>(count));
        }
      }
    }
    if (rec->trace_on()) {
      rec->timeline().span(spec.names[static_cast<std::size_t>(spec.phase)],
                           "phase", 0, sim.now());
    }
  }
  return rep;
}

TestRun run_test_phases(const TestSpec& spec) {
  TestRun run;
  // Independent simulations, indexed by phase: the run is the same
  // whatever order they complete in.
  run.phases = parallel::parallel_map(
      4, [&](std::size_t i) { return spec.run_phase(kTestPhases[i]); });
  auto& in = run.input;
  in.p1_original = run.phases[0].p1.meas;
  in.p2_original = run.phases[0].p2.meas;
  in.p1_inverted = run.phases[1].p1.meas;
  in.p2_inverted = run.phases[1].p2.meas;
  in.p0_original = run.phases[2].p1.meas;
  in.p0_inverted = run.phases[3].p1.meas;
  in.t_diff_history = spec.t_diff;
  in.base_rtt = spec.base_rtt;
  for (const auto& rep : run.phases) {
    run.injection += rep.injection;
    run.limiter_drops += rep.limiter_drops;
    if (rep.faulted) ++run.faulted_phases;
    if (rep.budget_exhausted && !run.budget_exhausted) {
      run.budget_exhausted = true;
      run.budget_reason = rep.budget_reason;
    }
  }
  return run;
}

TestRun run_test(const TestSpec& spec) {
  TestRun run = run_test_phases(spec);
  // A budget-stopped phase left a stump, not a measurement: the analyses
  // never see it, and the test's verdict is the budget outcome.
  if (!run.budget_exhausted) {
    Rng rng(spec.analysis_seed);
    run.localization = core::localize(run.input, rng);
  }
  return run;
}

ReportedTest run_reported_test(const TestSpec& spec,
                               const std::string& run_name) {
  ReportedTest out;
  // Metrics always (the report's histograms); spans only if someone will
  // write them out.
  obs::Recorder* outer = obs::Recorder::current();
  obs::Recorder local(/*metrics_on=*/true,
                      outer != nullptr && outer->trace_on());
  {
    obs::ScopedRecorder bind(&local);
    out.run = run_test(spec);
  }

  const TestRun& run = out.run;
  auto& r = out.report;
  r.run = run_name;
  r.seed = spec.seed;
  if (spec.fault_plan != nullptr) r.fault_plan = spec.fault_plan->name;
  if (run.budget_exhausted) {
    r.verdict = obs::kBudgetExhaustedVerdict;
    r.reason = std::string("budget:") + run.budget_reason;
  } else {
    r.verdict = core::to_string(run.localization.verdict);
    if (run.localization.verdict == core::Verdict::Inconclusive) {
      r.reason = core::to_string(run.localization.inconclusive_reason);
    }
  }
  // A budget-stopped test never ran localize(): its default trace is the
  // empty-but-valid decision block.
  r.decision = decision_section(run.localization.trace);
  for (std::size_t i = 0; i < run.phases.size(); ++i) {
    r.add_stage(spec.phase_names[static_cast<std::size_t>(kTestPhases[i])],
                0, run.phases[i].sim_duration);
  }
  for (const auto& [kind, count] : run.injection.by_kind()) {
    r.injection[kind] = count;
  }
  out.metrics = local.metrics();
  if (outer != nullptr) outer->absorb(std::move(local), run_name);
  return out;
}

std::vector<double> t_diff_pairs(const std::vector<double>& means) {
  std::vector<double> t_diff;
  t_diff.reserve(means.size() * (means.size() - 1) / 2);
  for (std::size_t i = 0; i < means.size(); ++i) {
    for (std::size_t j = i + 1; j < means.size(); ++j) {
      const double hi = std::max(means[i], means[j]);
      t_diff.push_back(hi > 0 ? (means[i] - means[j]) / hi : 0.0);
    }
  }
  return t_diff;
}

trace::AppTrace scenario_trace(const ScenarioConfig& cfg) {
  Rng trace_rng(cfg.seed * 0x9e3779b9ULL + 17);
  const auto& tcp_apps = trace::tcp_app_names();
  if (std::find(tcp_apps.begin(), tcp_apps.end(), cfg.app) !=
      tcp_apps.end()) {
    return trace::make_tcp_app_trace(cfg.app, cfg.base_trace_duration,
                                     trace_rng);
  }
  return trace::make_udp_app_trace(cfg.app, cfg.base_trace_duration,
                                   trace_rng);
}

trace::AppTrace prepare_replay(const trace::AppTrace& t,
                               const ScenarioConfig& cfg, Rng& rng) {
  trace::AppTrace out = trace::extend(t, cfg.replay_duration);
  if (cfg.modified_traces && out.transport == trace::Transport::Udp) {
    out = trace::poissonize(out, rng);
  }
  return out;
}

transport::TcpConfig replay_tcp_config(const ScenarioConfig& cfg) {
  transport::TcpConfig tcp;
  tcp.pacing = cfg.modified_traces;
  tcp.cc = cfg.tcp_cc;
  return tcp;
}

trace::BackgroundConfig scenario_background(const ScenarioConfig& cfg) {
  trace::BackgroundConfig bg;
  bg.target_rate = cfg.bg_rate_per_path;
  // ~1.2 arrivals/s per Mbps gives a mice/elephant mix whose aggregate is
  // congestion-responsive (like CAIDA's), rather than a hail of
  // slow-start-only mice.
  bg.flows_per_second = std::max(1.5, cfg.bg_rate_per_path / mbps(1.0) * 1.2);
  return bg;
}

}  // namespace wehey::experiments
