// Experiment harness: scenario derivation, the Figure-1 network, phases.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/loss_correlation.hpp"
#include "core/wehe.hpp"
#include "experiments/history.hpp"
#include "experiments/network.hpp"
#include "experiments/params.hpp"
#include "experiments/phase.hpp"
#include "experiments/scenario.hpp"
#include "experiments/wild.hpp"
#include "obs/recorder.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/descriptive.hpp"

namespace wehey::experiments {
namespace {

TEST(Params, EvaluationAppsAreSix) {
  const auto apps = evaluation_apps();
  ASSERT_EQ(apps.size(), 6u);
  EXPECT_EQ(apps.front(), "Netflix");
}

TEST(Params, DefaultScenarioUsesBoldValues) {
  const auto cfg = default_scenario("Netflix", 1);
  EXPECT_DOUBLE_EQ(cfg.input_rate_factor, 1.5);
  EXPECT_DOUBLE_EQ(cfg.queue_burst_factor, 0.5);
  EXPECT_DOUBLE_EQ(cfg.bg_diff_fraction, 0.5);
  EXPECT_DOUBLE_EQ(cfg.nc_utilization, 0.2);
  EXPECT_DOUBLE_EQ(cfg.rtt1_ms, 35.0);
}

TEST(Limiter, SizedPerAppendixC1) {
  // burst = rate x RTT in bytes; limit = factor x burst.
  const auto lp = make_limiter(mbps(8), milliseconds(50), 0.5);
  EXPECT_EQ(lp.burst, 50000);
  EXPECT_EQ(lp.limit, 25000);
}

TEST(Limiter, FloorsPreventDegenerateBuckets) {
  const auto lp = make_limiter(kbps(100), milliseconds(10), 0.25);
  EXPECT_GE(lp.burst, 6 * 1500);
  EXPECT_GE(lp.limit, 3 * 1500);
}

TEST(Scenario, DeriveComputesConsistentRates) {
  auto cfg = default_scenario("Netflix", 3);
  const auto d = derive(cfg);
  EXPECT_GT(d.trace_rate, mbps(1));
  EXPECT_DOUBLE_EQ(d.per_path_input, d.trace_rate + cfg.bg_rate_per_path);
  // Common-link limiter for a TCP trace: 2 x (trace + 50% of bg) divided
  // by the compressed pressure 1 + (factor - 1) * 0.55.
  const double pressure = 1.0 + (1.5 - 1.0) * 0.55;
  const double expected =
      2.0 * (d.trace_rate + 0.5 * cfg.bg_rate_per_path) / pressure;
  EXPECT_NEAR(d.limiter_rate, expected, 1.0);
  // Non-common links sized by the utilization knob.
  EXPECT_NEAR(d.net.bw_nc1, d.per_path_input / 0.2, 1.0);
}

TEST(Scenario, NonCommonPlacementSizesPerPath) {
  auto cfg = default_scenario("Skype", 3);
  cfg.placement = Placement::NonCommonLinks;
  const auto d = derive(cfg);
  // UDP traces are open-loop: the raw Table-2 factor applies.
  const double expected =
      (d.trace_rate + 0.5 * cfg.bg_rate_per_path) / 1.5;
  EXPECT_NEAR(d.limiter_rate, expected, 1.0);
}

TEST(Scenario, LimiterSizedAtDefaultBackgroundMix) {
  // The severe-throttling sweep (§6.3) varies the marked fraction without
  // resizing the limiter, so derive() must ignore bg_diff_fraction.
  auto base = default_scenario("Netflix", 3);
  auto severe = base;
  severe.bg_diff_fraction = 0.75;
  EXPECT_DOUBLE_EQ(derive(base).limiter_rate, derive(severe).limiter_rate);
}

TEST(Scenario, SameSeedSameTraceAcrossPhases) {
  auto cfg = default_scenario("Netflix", 7);
  const auto d1 = derive(cfg);
  const auto d2 = derive(cfg);
  EXPECT_DOUBLE_EQ(d1.trace_rate, d2.trace_rate);
}

TEST(Network, FigureOneDeliversToClient) {
  netsim::Simulator sim;
  Rng rng(5);
  NetworkParams params;
  params.bw_nc1 = mbps(20);
  params.bw_nc2 = mbps(20);
  params.bw_c = mbps(40);
  params.rtt1 = milliseconds(30);
  params.rtt2 = milliseconds(50);
  FigureOneNetwork net(sim, params, rng);

  trace::AppTrace t;
  t.transport = trace::Transport::Udp;
  for (int i = 0; i < 100; ++i) t.packets.push_back({i * milliseconds(10), 1000});
  const int id1 = net.start_udp_replay(1, t, 0);
  const int id2 = net.start_udp_replay(2, t, 0);
  net.run(seconds(2));
  const auto r1 = net.report(id1, 0, seconds(1));
  const auto r2 = net.report(id2, 0, seconds(1));
  EXPECT_EQ(r1.meas.deliveries.size(), 100u);
  EXPECT_EQ(r2.meas.deliveries.size(), 100u);
  // One-way delays reflect per-path RTTs (half of RTT each way).
  EXPECT_NEAR(stats::min(r1.meas.rtt_ms), 15.0, 2.0);
  EXPECT_NEAR(stats::min(r2.meas.rtt_ms), 25.0, 2.0);
  EXPECT_EQ(net.limiter_drops(), 0u);
}

TEST(Network, CommonLimiterThrottlesOnlyDifferentiated) {
  netsim::Simulator sim;
  Rng rng(7);
  NetworkParams params;
  params.placement = Placement::CommonLink;
  params.limiter = make_limiter(kbps(400), milliseconds(35), 0.5);
  FigureOneNetwork net(sim, params, rng);

  // 800 kbps offered on each class.
  trace::AppTrace diff, normal;
  diff.transport = normal.transport = trace::Transport::Udp;
  for (int i = 0; i < 500; ++i) {
    diff.packets.push_back({i * milliseconds(10), 1000});
    normal.packets.push_back({i * milliseconds(10), 1000});
  }
  diff.carries_sni = true;    // dscp=1 -> TBF
  normal.carries_sni = false; // dscp=0 -> FIFO
  const int id_diff = net.start_udp_replay(1, diff, 0);
  const int id_norm = net.start_udp_replay(2, normal, 0);
  net.run(seconds(6));
  const auto rd = net.report(id_diff, 0, seconds(5));
  const auto rn = net.report(id_norm, 0, seconds(5));
  EXPECT_GT(rd.meas.loss_rate(), 0.3);   // policed at half the offered rate
  EXPECT_DOUBLE_EQ(rn.meas.loss_rate(), 0.0);
  EXPECT_GT(net.limiter_drops(), 0u);
}

TEST(Phase, SimultaneousOriginalConfirmsAgainstInverted) {
  auto cfg = default_scenario("MSTeams", 11);
  cfg.replay_duration = seconds(20);
  const auto test = run_simultaneous_test_reported(cfg, "confirm");
  // With the limiter on the common link and the default grid point, WeHe
  // must confirm differentiation on both paths.
  EXPECT_TRUE(test.localization.confirmation_passed);
  const auto& original = test.phases[0];
  const auto& inverted = test.phases[1];
  EXPECT_GT(original.p1.meas.loss_rate(), inverted.p1.meas.loss_rate());
  EXPECT_LT(original.p1.avg_throughput_bps, inverted.p1.avg_throughput_bps);
}

TEST(Phase, SinglePhaseHasNoSecondPath) {
  auto cfg = default_scenario("Skype", 13);
  cfg.replay_duration = seconds(10);
  const auto rep = run_phase(cfg, Phase::SingleOriginal);
  EXPECT_FALSE(rep.p1.meas.deliveries.empty());
  EXPECT_TRUE(rep.p2.meas.deliveries.empty());
}

// A TestSpec runs and stages exactly the phases it names, in its order,
// and localize() sees their measurements.
TEST(Phase, TwoPhaseTestStagesOnlyItsPhases) {
  constexpr PhaseNames kNames = {"sim_original", "sim_inverted",
                                 "single_original", "single_inverted"};
  const std::vector<double> no_t_diff;
  const TestSpec spec{.run_phase =
                          [](Phase phase) {
                            PhaseReport rep;
                            rep.p1.meas.deliveries.push_back({seconds(1), 1});
                            rep.sim_duration =
                                seconds(1 + static_cast<int>(phase));
                            return rep;
                          },
                      .phase_names = kNames,
                      .seed = 1,
                      .analysis_seed = 2,
                      .fault_plan = nullptr,
                      .t_diff = no_t_diff,
                      .base_rtt = milliseconds(35),
                      .phases = kSimultaneousPhases};
  const auto test = run_reported_test(spec, "two_phase");
  ASSERT_EQ(test.phases.size(), 2u);
  EXPECT_EQ(test.phases[0].sim_duration, seconds(1));
  EXPECT_EQ(test.phases[1].sim_duration, seconds(2));
  ASSERT_EQ(test.report.stages.size(), 2u);
  EXPECT_EQ(test.report.stages[0].name, "sim_original");
  EXPECT_EQ(test.report.stages[0].sim_end, seconds(1));
  EXPECT_EQ(test.report.stages[1].name, "sim_inverted");
  EXPECT_EQ(test.report.stages[1].sim_end, seconds(2));
  // localize() ran on the two phases: their p2 carried no data.
  EXPECT_TRUE(test.report.decision.evaluated);
  EXPECT_EQ(test.localization.inconclusive_reason,
            core::InconclusiveReason::EmptyMeasurement);
}

// The §6.2 test scores every §6 table and the extension benches. Its
// reference is the composition they used before: the two simultaneous
// phases, WeHe's confirmation on both paths (an unconfirmed run is
// skipped), then Alg. 1 at base RTT max(RTT_1, RTT_2). The runs come from
// the bench grids and cover each class: Table 5's Netflix and WhatsApp
// seed 1 (unconfirmed) and Zoom seed 2 (its FP hit), Fig 7's seeds 7 (TP)
// and 8 (FN), bench_bbr's BBR seeds 1300 (FN) and 1302 (unconfirmed),
// bench_shaper_limitation's queue 1.0 seed 1401 (a sub-margin FN) and
// queue 0.25 seed 1400 (TP), and bench_perflow's honest seed 900 (FN),
// spoofed seed 950 (FN) and separate-bucket seed 990 (TN).
TEST(Scenario, SimultaneousTestAuditMatchesConfirmedLossTrend) {
  struct Case {
    ScenarioConfig cfg;
    const char* expected;
  };
  const auto table5 = [](const char* app, std::uint64_t seed) {
    auto cfg = default_scenario(app, seed);
    cfg.placement = Placement::NonCommonLinks;
    cfg.input_rate_factor = 1.5;
    cfg.queue_burst_factor = 0.25;
    return cfg;
  };
  const auto fig7 = [](std::uint64_t seed) {
    auto cfg = default_scenario("Netflix", seed);
    cfg.bg_diff_fraction = 0.25;
    cfg.input_rate_factor = 1.5;
    return cfg;
  };
  const auto bbr = [](std::uint64_t seed) {
    auto cfg = default_scenario("Netflix", seed);
    cfg.tcp_cc = transport::CongestionControl::Bbr;
    return cfg;
  };
  const auto shaper = [](double queue, std::uint64_t seed) {
    auto cfg = default_scenario("Netflix", seed);
    cfg.queue_burst_factor = queue;
    return cfg;
  };
  const auto perflow = [](bool spoof, bool per_flow, std::uint64_t seed) {
    auto cfg = default_scenario("Netflix", seed);
    cfg.placement =
        per_flow ? Placement::PerFlowCommonLink : Placement::NonCommonLinks;
    cfg.spoof_same_flow = spoof;
    return cfg;
  };
  const std::vector<Case> cases = {{table5("Netflix", 1), "skipped"},
                                   {table5("WhatsApp", 1), "skipped"},
                                   {table5("Zoom", 2), "fp"},
                                   {fig7(7), "tp"},
                                   {fig7(8), "fn"},
                                   {bbr(1300), "fn"},
                                   {bbr(1302), "skipped"},
                                   {shaper(1.0, 1401), "fn"},
                                   {shaper(0.25, 1400), "tp"},
                                   {perflow(false, true, 900), "fn"},
                                   {perflow(true, true, 950), "fn"},
                                   {perflow(true, false, 990), "tn"}};
  const auto reference = [](const ScenarioConfig& cfg) -> std::string {
    const auto original = run_phase(cfg, Phase::SimOriginal);
    const auto inverted = run_phase(cfg, Phase::SimInverted);
    if (!core::detect_differentiation(original.p1.meas, inverted.p1.meas)
             .differentiation ||
        !core::detect_differentiation(original.p2.meas, inverted.p2.meas)
             .differentiation) {
      return "skipped";
    }
    const bool detected =
        core::loss_trend_correlation(
            original.p1.meas, original.p2.meas,
            milliseconds(std::max(cfg.rtt1_ms, cfg.rtt2_ms)))
            .common_bottleneck;
    // Per-flow buckets on the common link are differentiation inside the
    // target area, as ground_truth_section records it.
    if (cfg.placement == Placement::CommonLink ||
        cfg.placement == Placement::PerFlowCommonLink) {
      return detected ? "tp" : "fn";
    }
    return detected ? "fp" : "tn";
  };
  const auto classes = parallel::parallel_map(cases.size(), [&](std::size_t i) {
    const auto res = run_simultaneous_test_reported(cases[i].cfg, "parity");
    return std::pair(reference(cases[i].cfg), res.report.audit);
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [want, audit] = classes[i];
    EXPECT_EQ(want, cases[i].expected) << i;
    EXPECT_EQ(audit.classification, want) << i;
    EXPECT_EQ(audit.mismatch_reason == "not-confirmed", want == "skipped")
        << i;
  }
}

TEST(History, TDiffHasSpreadAndSaneRange) {
  auto cfg = default_scenario("Netflix", 17);
  cfg.replay_duration = seconds(10);
  HistoryConfig hist;
  hist.replays = 5;
  const auto t_diff = build_t_diff_history(cfg, hist);
  ASSERT_EQ(t_diff.size(), 10u);  // all C(5,2) pairs
  for (double v : t_diff) {
    EXPECT_GT(v, -1.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Wild, FiveIspModels) {
  const auto isps = default_isp_models();
  ASSERT_EQ(isps.size(), 5u);
  EXPECT_TRUE(isps[4].delayed_fixed_rate);  // ISP5
  for (const auto& isp : isps) {
    EXPECT_GT(isp.throttle_factor, 0.0);
    EXPECT_LT(isp.throttle_factor, 1.0);
  }
}

TEST(Wild, PerClientThrottlingLocalized) {
  WildConfig cfg;
  cfg.isp = default_isp_models()[0];
  cfg.seed = 21;
  const auto t_diff = build_wild_t_diff(cfg, 8);
  const auto out = run_wild_test_reported(cfg, t_diff);
  EXPECT_TRUE(out.localization.confirmation_passed);
  EXPECT_EQ(out.report.values.at("localized"), 1.0);
  EXPECT_EQ(out.localization.mechanism, core::Mechanism::PerClientThrottling);
}

TEST(Wild, DelayedThrottlerEvadesThroughputComparisonMostly) {
  // ISP5's delayed activation breaks the X ~ Y relationship (Figure 4);
  // Table 1 still records occasional successes (16%), so assert on a
  // small batch rather than a single run.
  int per_client = 0;
  for (std::uint64_t seed : {23, 24, 25}) {
    WildConfig cfg;
    cfg.isp = default_isp_models()[4];  // ISP5
    cfg.seed = seed;
    const auto t_diff = build_wild_t_diff(cfg, 8);
    const auto out = run_wild_test_reported(cfg, t_diff);
    EXPECT_TRUE(out.localization.confirmation_passed);
    per_client +=
        out.localization.mechanism == core::Mechanism::PerClientThrottling;
  }
  EXPECT_LE(per_client, 1);
}

TEST(Wild, SanityPhaseKeepsTheEventHeapShallow) {
  // A Table-1 sanity phase: three 45-s replays plus packet background.
  // Each replay's supply schedule, the background flow starts and every
  // sender's RTO keep one pending event each, so the heap stays shallow
  // however many trace packets the replays supply. One event per trace
  // packet and per RTO arm put this phase's peak in the tens of thousands.
  WildConfig cfg;
  cfg.isp = default_isp_models()[0];
  cfg.bg_mode = trace::BackgroundMode::kPacket;
  // The two measured replays alone; the third one supplies more.
  const std::size_t supplied = 2 * wild_replay_trace(cfg, false).packets.size();
  ASSERT_GT(supplied, 10000u);
  obs::Recorder rec(/*metrics_on=*/true, /*trace_on=*/false);
  {
    obs::ScopedRecorder bind(&rec);
    (void)run_wild_phase(cfg, Phase::SimOriginal, /*third_replay=*/true);
  }
  const obs::Gauge& depth = rec.metrics().gauge("sim.heap_depth_peak");
  ASSERT_TRUE(depth.seen());
  EXPECT_LT(depth.max(), 1000.0);
}

}  // namespace
}  // namespace wehey::experiments
