#include "experiments/wild.hpp"

#include "experiments/delayed_tbf.hpp"
#include "experiments/ground_truth.hpp"
#include "experiments/phase.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/descriptive.hpp"
#include "trace/apps.hpp"

namespace wehey::experiments {
namespace {

constexpr PhaseNames kWildPhaseNames = {
    "wild_sim_original", "wild_sim_inverted", "wild_single_original",
    "wild_single_inverted"};

}  // namespace

trace::AppTrace wild_replay_trace(const WildConfig& cfg, bool inverted) {
  // All five wild apps are TCP streaming services, each with its own
  // chunking profile; the seed makes each session a deterministic
  // "recording".
  std::uint64_t app_hash = 1469598103934665603ULL;
  for (char ch : cfg.app) app_hash = (app_hash ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
  Rng trace_rng(cfg.seed * 0x9e3779b9ULL ^ app_hash);
  const auto& known = trace::tcp_app_names();
  const std::string app =
      std::find(known.begin(), known.end(), cfg.app) != known.end()
          ? cfg.app
          : "Netflix";
  trace::AppTrace t = trace::make_tcp_app_trace(app, seconds(15), trace_rng);
  t.app = cfg.app;
  if (inverted) t = trace::bit_invert(t);
  return trace::extend(t, cfg.replay_duration);
}

NetworkParams wild_network_params(const WildConfig& cfg, Rate trace_rate) {
  NetworkParams net;
  const Time rtt = milliseconds(cfg.rtt_ms);
  net.rtt1 = rtt;
  net.rtt2 = rtt;
  net.bw_nc1 = 20.0 * trace_rate;
  net.bw_nc2 = 20.0 * trace_rate;
  net.bw_c = 20.0 * trace_rate;
  net.placement = Placement::None;  // common disc installed via factory

  // Cellular last mile: nominal capacity only moderately above the trace
  // rate, with substantial jitter — the source of normal throughput
  // variation between repeated tests.
  net.access_rate = cfg.isp.access_rate_factor * trace_rate;
  net.access_jitter_sigma = cfg.isp.access_jitter;

  const Rate throttle_rate = cfg.isp.throttle_factor * trace_rate;
  const auto lp =
      make_limiter(throttle_rate, rtt, cfg.isp.queue_burst_factor);
  const std::int64_t fifo_limit = std::max<std::int64_t>(
      64 * 1024,
      static_cast<std::int64_t>(bytes_in(net.bw_c, milliseconds(50))));
  const bool delayed = cfg.isp.delayed_fixed_rate;
  const std::int64_t trigger = static_cast<std::int64_t>(
      cfg.isp.trigger_seconds * trace_rate / 8.0);
  net.common_disc_factory = [lp, fifo_limit, delayed, trigger]() {
    auto fifo = std::make_unique<netsim::FifoDisc>(fifo_limit);
    std::unique_ptr<netsim::QueueDisc> throttled;
    if (delayed) {
      throttled = std::make_unique<DelayedTbfDisc>(trigger, lp.rate,
                                                   lp.burst, lp.limit);
    } else {
      throttled =
          std::make_unique<netsim::TbfDisc>(lp.rate, lp.burst, lp.limit);
    }
    return std::make_unique<netsim::RateLimiterDisc>(std::move(fifo),
                                                     std::move(throttled));
  };
  return net;
}

std::vector<IspModel> default_isp_models() {
  // Four unconditional per-client throttlers with mildly different
  // parameters, and the delayed fixed-rate one (ISP5).
  return {
      {"ISP1", 0.60, 0.50, 1.3, 0.35, false, 0.0},
      {"ISP2", 0.55, 0.25, 1.3, 0.30, false, 0.0},
      {"ISP3", 0.65, 1.00, 1.4, 0.30, false, 0.0},
      {"ISP4", 0.50, 0.50, 1.3, 0.25, false, 0.0},
      // ISP5: delayed fixed-rate throttling; its access link is fast
      // enough (2.6x) that the pre-trigger simultaneous replay really
      // does run at ~2x the single replay, maximizing the X/Y mismatch
      // the paper observed (Figure 4).
      {"ISP5", 0.60, 0.50, 2.6, 0.30, true, 25.0},
  };
}

PhaseReport run_wild_phase(const WildConfig& cfg, Phase phase,
                           bool third_replay) {
  const Rate trace_rate = wild_replay_trace(cfg, false).average_rate();
  const NetworkParams net = wild_network_params(cfg, trace_rate);
  const PhaseSpec spec{.phase = phase,
                       .names = kWildPhaseNames,
                       .seed = cfg.seed,
                       .net = net,
                       // The client's own light background (not
                       // differentiated).
                       .bg = {.target_rate = cfg.bg_rate_per_path,
                              .flows_per_second = 2.0},
                       .bg_diff_fraction = std::nullopt,
                       .bg_mode = cfg.bg_mode,
                       .replay_duration = cfg.replay_duration,
                       .fault_plan = cfg.fault_plan};
  return run_test_phase(spec, [&](PhaseRun& run) {
    const trace::AppTrace replay = wild_replay_trace(cfg, !is_original(phase));
    transport::TcpConfig tcp;  // pacing on: WeHeY's modified replay
    const int kConnections = 3;  // streaming sessions use several flows
    run.start(1, replay, tcp, kConnections);
    if (is_simultaneous(phase)) {
      run.start(2, replay, tcp, kConnections);
      if (third_replay && is_original(phase)) {
        // Sanity check (§5): a third server replays a third original
        // trace concurrently; it shares the per-client limiter via path 1.
        WildConfig third = cfg;
        third.seed = cfg.seed + 9999;
        third.app = "Twitch";
        run.net.start_tcp_replay(1, wild_replay_trace(third, false),
                                 2 * kSecondReplayOffset, tcp, kConnections);
      }
    }
  });
}

std::vector<double> build_wild_t_diff(const WildConfig& cfg,
                                      std::size_t replays) {
  WEHEY_EXPECTS(replays >= 2);
  // Each replay is an independent seeded simulation; fan them out over the
  // parallel engine (result order is by index, so t_diff is unchanged).
  return t_diff_pairs(parallel::parallel_map(replays, [&](std::size_t i) {
    WildConfig run = cfg;
    run.seed = cfg.seed * 104729ULL + i * 131ULL + 3ULL;
    const auto rep = run_wild_phase(run, Phase::SingleInverted);
    return stats::mean(rep.p1.meas.throughput_samples(100));
  }));
}

namespace {

TestSpec wild_test(const WildConfig& cfg, const std::vector<double>& t_diff,
                   bool third_replay) {
  return {.run_phase =
              [&cfg, third_replay](Phase phase) {
                return run_wild_phase(cfg, phase, third_replay);
              },
          .phase_names = kWildPhaseNames,
          .seed = cfg.seed,
          .analysis_seed = cfg.seed * 2654435761ULL + 101,
          .fault_plan = cfg.fault_plan,
          .t_diff = t_diff,
          .base_rtt = milliseconds(cfg.rtt_ms)};
}

}  // namespace

ReportedTest run_wild_test_reported(const WildConfig& cfg,
                                    const std::vector<double>& t_diff,
                                    bool sanity_check,
                                    const std::string& run_name) {
  auto out =
      run_reported_test(wild_test(cfg, t_diff, sanity_check), run_name);
  auto& r = out.report;
  r.cell = cfg.isp.name;
  // The ground truth is a pure function of the config (same trace-rate
  // expression wild_network_params consumed), and the audit classifies
  // the run exactly the way the Table-1 bench tallies it — basic success
  // = localized with the per-client mechanism, sanity wrongness =
  // asserting the per-client mechanism at all.
  const Rate trace_rate =
      wild_replay_trace(cfg, /*inverted=*/false).average_rate();
  r.ground_truth = ground_truth_section(cfg, trace_rate, sanity_check);
  // A budget-stopped test keeps the default localization: no evidence.
  const bool localized =
      out.localization.verdict == core::Verdict::EvidenceWithinTargetArea;
  const bool per_client =
      out.localization.mechanism == core::Mechanism::PerClientThrottling;
  const bool observed_positive =
      sanity_check ? per_client : (localized && per_client);
  const bool mechanism_mismatch = !sanity_check && localized && !per_client;
  r.audit = obs::classify_audit(
      r.ground_truth, observed_positive, mechanism_mismatch,
      out.budget_exhausted() ? obs::kSkipBudgetExhausted : "", r.decision);
  r.values["localized"] = localized ? 1.0 : 0.0;
  // The mechanism as a scalar, so offline consumers (checkpoint resume in
  // the Table-1 bench) can rebuild per-cell tallies from journaled
  // reports without re-running the test.
  r.values["per_client"] = per_client ? 1.0 : 0.0;
  r.values["throughput_p"] = out.localization.throughput.p_value;
  r.values["faulted_phases"] = out.faulted_phases();
  return out;
}

}  // namespace wehey::experiments
