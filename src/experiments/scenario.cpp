#include "experiments/scenario.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "experiments/ground_truth.hpp"
#include "experiments/phase.hpp"

namespace wehey::experiments {
namespace {

constexpr PhaseNames kPhaseNames = {"sim_original", "sim_inverted",
                                    "single_original", "single_inverted"};

/// The §6.2 test's T_diff: none, so §4.1's comparison cannot run.
const std::vector<double> kNoTDiff;

TestSpec scenario_test(const ScenarioConfig& cfg,
                       const std::vector<double>& t_diff_history,
                       std::span<const Phase> phases) {
  return {.run_phase = [&cfg](Phase phase) { return run_phase(cfg, phase); },
          .phase_names = kPhaseNames,
          .seed = cfg.seed,
          .analysis_seed = cfg.seed * 2654435761ULL + 9,
          .fault_plan = cfg.fault_plan,
          .t_diff = t_diff_history,
          .base_rtt = std::max(milliseconds(cfg.rtt1_ms),
                               milliseconds(cfg.rtt2_ms)),
          .phases = phases};
}

/// The scenario's ground truth and the audit of the test's
/// within-target-area verdict; a non-empty `skip_reason` keeps the run out
/// of the confusion counts.
void audit(const ScenarioConfig& cfg, ReportedTest& test,
           const std::string& skip_reason) {
  auto& r = test.report;
  r.ground_truth = ground_truth_section(cfg, derive(cfg));
  r.audit = obs::classify_audit(
      r.ground_truth,
      test.localization.verdict == core::Verdict::EvidenceWithinTargetArea,
      /*mechanism_mismatch=*/false, skip_reason, r.decision);
}

}  // namespace

ScenarioDerived derive(const ScenarioConfig& cfg) {
  ScenarioDerived d;
  const auto t = scenario_trace(cfg);
  d.trace_rate = t.average_rate();
  WEHEY_EXPECTS(d.trace_rate > 0);
  d.per_path_input = d.trace_rate + cfg.bg_rate_per_path;

  const Time rtt1 = milliseconds(cfg.rtt1_ms);
  const Time rtt2 = milliseconds(cfg.rtt2_ms);
  const Time max_rtt = std::max(rtt1, rtt2);

  d.net.rtt1 = rtt1;
  d.net.rtt2 = rtt2;
  d.net.placement = cfg.placement;
  // Non-common links: utilization knob of Table 2 ("input traffic / link
  // bandwidth"); the common link always has ample headroom so that, when
  // unthrottled, it never bottlenecks by itself.
  // As with the rate-limiter pressure below, the utilization knob is an
  // *offered*-load ratio; elastic traffic self-limits, so the realized
  // ratio the paper's testbed saw was milder. Compress above 0.5 so that
  // 0.95/1.05/1.15 map to hot-but-not-collapsed links (the regime where
  // the paper reports FN of ~19-35% for TCP and ~0 for UDP).
  double util = cfg.nc_utilization;
  if (util > 0.5) util = 0.5 + (util - 0.5) * 0.5;
  d.net.bw_nc1 = d.per_path_input / util;
  d.net.bw_nc2 = d.per_path_input / util;
  // Carrier-grade links buffer deeply (~150 ms): bursts are absorbed as
  // queueing delay rather than as independent per-path loss, keeping the
  // common rate-limiter the dominant loss cause until the links are
  // genuinely saturated.
  d.net.fifo_limit_bytes =
      static_cast<std::int64_t>(bytes_in(d.net.bw_nc1, milliseconds(150)));
  d.net.bw_c = 2.0 * d.per_path_input / 0.2;

  // Rate-limiter sizing: the differentiated class's offered load during
  // the simultaneous original replay, divided by the Table-2 arrival
  // factor. With the limiter on the common link both traces and both
  // paths' differentiated background hit one box; on the non-common links
  // each of the two identical boxes sees one path's worth.
  //
  // Calibration: the paper set rate and queue "so as to achieve a target
  // average loss rate and queuing delay", with input *arriving* at
  // 1.3-2.5x the rate — but a mostly-TCP input is elastic and cannot
  // sustain such arrival ratios; its offered load self-limits. Dividing
  // the open-loop offered load by the raw factor therefore over-throttles
  // relative to the paper's realized conditions (Figure 5a: retx rates of
  // ~1-15%). Compressing the pressure range maps the Table-2 factors onto
  // that same realized envelope.
  // UDP traces are open-loop and genuinely sustain the configured arrival
  // ratio, so they use the raw factor.
  const double pressure =
      t.transport == trace::Transport::Tcp
          ? 1.0 + (cfg.input_rate_factor - 1.0) * 0.55
          : cfg.input_rate_factor;
  // The limiter is sized once, for the *default* background mix (bold
  // value in Table 2). Â§6.3's severe-throttling experiments then direct a
  // larger fraction of the background through the same limiter, genuinely
  // overloading it â which is how the paper reaches >20% retransmission
  // rates with the same rate-limiter configuration.
  const Rate diff_per_path = d.trace_rate + 0.5 * cfg.bg_rate_per_path;
  if (cfg.placement == Placement::CommonLink) {
    d.limiter_rate = 2.0 * diff_per_path / pressure;
    d.net.limiter =
        make_limiter(d.limiter_rate, max_rtt, cfg.queue_burst_factor);
  } else if (cfg.placement == Placement::NonCommonLinks) {
    d.limiter_rate = diff_per_path / pressure;
    d.net.limiter =
        make_limiter(d.limiter_rate, max_rtt, cfg.queue_burst_factor);
  } else if (cfg.placement == Placement::PerFlowCommonLink) {
    // Per-flow throttling: every differentiated flow gets its own bucket,
    // each sized against one replay's offered rate.
    d.limiter_rate = d.trace_rate / pressure;
    d.net.limiter =
        make_limiter(d.limiter_rate, max_rtt, cfg.queue_burst_factor);
  }
  return d;
}

PhaseReport run_phase(const ScenarioConfig& cfg, Phase phase) {
  const auto derived = derive(cfg);
  const PhaseSpec spec{.phase = phase,
                       .names = kPhaseNames,
                       .seed = cfg.seed,
                       .net = derived.net,
                       .bg = scenario_background(cfg),
                       .bg_diff_fraction = cfg.bg_diff_fraction,
                       .bg_mode = cfg.bg_mode,
                       .replay_duration = cfg.replay_duration,
                       .fault_plan = cfg.fault_plan};
  return run_test_phase(spec, [&](PhaseRun& run) {
    trace::AppTrace t = scenario_trace(cfg);
    if (!is_original(phase)) t = trace::bit_invert(t);
    const trace::AppTrace replay1 = prepare_replay(t, cfg, run.rng);
    const auto tcp = replay_tcp_config(cfg);
    // The §7 same-flow countermeasure: both replays carry one flow key so
    // a per-flow policer assigns them to the same bucket.
    const netsim::FlowId key =
        cfg.spoof_same_flow ? netsim::FlowId{0xBEEF} : netsim::FlowId{0};
    run.start(1, replay1, tcp, cfg.tcp_connections, key);
    if (!is_simultaneous(phase)) return;
    if (replay1.transport == trace::Transport::Tcp) {
      run.start(2, replay1, tcp, cfg.tcp_connections, key);
    } else {
      // Independent Poisson re-timing per path (two servers re-time their
      // replays independently).
      run.start(2, prepare_replay(t, cfg, run.rng), tcp, cfg.tcp_connections,
                key);
    }
  });
}

bool ReportedTest::budget_exhausted() const {
  return std::any_of(phases.begin(), phases.end(),
                     [](const PhaseReport& p) { return p.budget_exhausted; });
}

int ReportedTest::faulted_phases() const {
  return static_cast<int>(
      std::count_if(phases.begin(), phases.end(),
                    [](const PhaseReport& p) { return p.faulted; }));
}

ReportedTest run_full_experiment_reported(
    const ScenarioConfig& cfg, const std::vector<double>& t_diff_history,
    const std::string& run_name) {
  auto test = run_reported_test(
      scenario_test(cfg, t_diff_history, kTestPhases), run_name);
  std::uint64_t limiter_drops = 0;
  for (const auto& rep : test.phases) limiter_drops += rep.limiter_drops;
  auto& v = test.report.values;
  v["limiter_drops"] = static_cast<double>(limiter_drops);
  v["phases_faulted"] = test.faulted_phases();
  v["degraded"] = test.localization.degraded ? 1.0 : 0.0;
  audit(cfg, test, test.budget_exhausted() ? obs::kSkipBudgetExhausted : "");
  return test;
}

ReportedTest run_simultaneous_test_reported(const ScenarioConfig& cfg,
                                            const std::string& run_name) {
  auto test = run_reported_test(
      scenario_test(cfg, kNoTDiff, kSimultaneousPhases), run_name);
  const PathReport& p1 = test.phases[0].p1;
  test.report.values["retx_rate"] = p1.retx_rate;
  test.report.values["queue_delay_ms"] = p1.avg_queuing_delay_ms;
  const char* skip = test.budget_exhausted() ? obs::kSkipBudgetExhausted
                     : test.localization.confirmation_passed
                         ? ""
                         : obs::kSkipNotConfirmed;
  audit(cfg, test, skip);
  return test;
}

}  // namespace wehey::experiments
