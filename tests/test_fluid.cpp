// Hybrid fluid/packet background traffic (netsim/fluid.hpp and the
// WEHEY_BG_MODE plumbing): offered-rate equivalence of the fluid profile,
// event reduction against the packet backend, bit-identical fluid sweeps
// across thread counts, and verdict parity with packet mode on a Table-1
// mini-sweep.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "experiments/wild.hpp"
#include "netsim/fluid.hpp"
#include "obs/recorder.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/background.hpp"

namespace wehey {
namespace {

using experiments::Phase;
using experiments::PhaseReport;
using experiments::WildConfig;

// ------------------------------------------------------------ profile

TEST(FluidProfile, ConservesWorkloadBytesExactly) {
  trace::BackgroundConfig bg;
  bg.target_rate = mbps(4.0);
  bg.duration = seconds(48);
  bg.flows_per_second = 5.0;
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    Rng rng(seed);
    auto flows = trace::generate_background(bg, rng);
    trace::mark_differentiated(flows, 0.5, rng);
    const auto profile = trace::fluid_profile(flows, bg);
    EXPECT_EQ(profile.total_bytes(), trace::total_bytes(flows))
        << "seed " << seed;
    EXPECT_FALSE(profile.empty());
  }
}

TEST(FluidProfile, LongRunRateMatchesTarget) {
  // The workload generator is scaled so the expected aggregate offered
  // rate is the target; the fluid profile must preserve that long-run
  // rate. Average over seeds to tame the heavy-tailed flow sizes.
  trace::BackgroundConfig bg;
  bg.target_rate = mbps(4.0);
  bg.duration = seconds(60);
  bg.flows_per_second = 8.0;
  double rate_sum = 0.0;
  const int kSeeds = 10;
  for (int s = 0; s < kSeeds; ++s) {
    Rng rng(1000 + 17 * static_cast<std::uint64_t>(s));
    const auto flows = trace::generate_background(bg, rng);
    const auto profile = trace::fluid_profile(flows, bg);
    rate_sum += static_cast<double>(profile.total_bytes()) * 8.0 /
                to_seconds(bg.duration);
  }
  const double mean_rate = rate_sum / kSeeds;
  EXPECT_GT(mean_rate, 0.5 * bg.target_rate);
  EXPECT_LT(mean_rate, 1.8 * bg.target_rate);
}

TEST(FluidProfile, SplitsClassesByDifferentiationMark) {
  trace::BackgroundConfig bg;
  bg.target_rate = mbps(2.0);
  bg.duration = seconds(20);
  Rng rng(3);
  auto flows = trace::generate_background(bg, rng);
  trace::mark_differentiated(flows, 1.0, rng);  // everything differentiated
  const auto all_diff = trace::fluid_profile(flows, bg);
  double dflt_bits = 0.0;
  for (const Rate r : all_diff.dflt) dflt_bits += r;
  EXPECT_DOUBLE_EQ(dflt_bits, 0.0);
  double diff_bits = 0.0;
  for (const Rate r : all_diff.diff) diff_bits += r;
  EXPECT_GT(diff_bits, 0.0);
}

// ------------------------------------------------------ shared links

TEST(FluidLink, SharedFifoLinkKeepsTwoEventsPerPacket) {
  // Fluid bursts go ahead of packets already queued, so a FIFO link a
  // FluidSource shares keeps transmit-done events; an unshared one
  // dispatches only each packet's arrival at the next hop.
  const auto events = [](bool shared) {
    netsim::Simulator sim;
    netsim::NullSink sink;
    netsim::Link link(sim, mbps(12), milliseconds(5),
                      std::make_unique<netsim::FifoDisc>(0), &sink);
    netsim::FluidSegments seg;
    seg.dflt = {mbps(1)};
    std::unique_ptr<netsim::FluidSource> fluid;
    if (shared) {  // never started: no step events
      fluid = std::make_unique<netsim::FluidSource>(
          sim, seg, std::vector<netsim::Link*>{&link});
    }
    netsim::Packet pkt;
    pkt.size = 1500;
    for (int i = 0; i < 10; ++i) link.receive(pkt);
    sim.run();
    EXPECT_EQ(sink.packets(), 10u);
    return sim.budget_events_dispatched();
  };
  EXPECT_EQ(events(false), 10u);
  EXPECT_EQ(events(true), 20u);
}

// ------------------------------------------------------------ env knob

TEST(BackgroundMode, EnvParsing) {
  ::unsetenv("WEHEY_BG_MODE");
  EXPECT_EQ(trace::background_mode_from_env(),
            trace::BackgroundMode::kPacket);
  ::setenv("WEHEY_BG_MODE", "fluid", 1);
  EXPECT_EQ(trace::background_mode_from_env(), trace::BackgroundMode::kFluid);
  EXPECT_EQ(trace::resolve_background_mode(trace::BackgroundMode::kEnv),
            trace::BackgroundMode::kFluid);
  // Explicit modes ignore the environment.
  EXPECT_EQ(trace::resolve_background_mode(trace::BackgroundMode::kPacket),
            trace::BackgroundMode::kPacket);
  ::setenv("WEHEY_BG_MODE", "packet", 1);
  EXPECT_EQ(trace::background_mode_from_env(),
            trace::BackgroundMode::kPacket);
  ::setenv("WEHEY_BG_MODE", "nonsense", 1);
  EXPECT_EQ(trace::background_mode_from_env(),
            trace::BackgroundMode::kPacket);
  ::unsetenv("WEHEY_BG_MODE");
}

// ------------------------------------------------------ event reduction

/// Simulator events dispatched by one wild phase under the given
/// background mode (WEHEY_BG_MODE must be unset; the mode is explicit).
std::uint64_t phase_events(trace::BackgroundMode mode, Rate bg_rate) {
  WildConfig cfg;
  cfg.isp = experiments::default_isp_models()[0];
  cfg.replay_duration = seconds(10);
  cfg.bg_rate_per_path = bg_rate;
  cfg.bg_mode = mode;
  obs::Recorder rec(/*metrics_on=*/true, /*trace_on=*/false);
  {
    obs::ScopedRecorder bind(&rec);
    (void)experiments::run_wild_phase(cfg, Phase::SimOriginal);
  }
  return rec.metrics().counter("sim.events").value();
}

TEST(FluidWild, BackgroundEventsShrinkByAnOrderOfMagnitude) {
  // The replay itself dominates a wild phase, so compare the *background-
  // attributable* events: phase(bg) - phase(almost no bg), per mode.
  const Rate bg = mbps(2.0);
  const Rate none = kbps(1);  // generate_background needs a positive rate
  const std::uint64_t packet = phase_events(trace::BackgroundMode::kPacket, bg);
  const std::uint64_t packet0 =
      phase_events(trace::BackgroundMode::kPacket, none);
  const std::uint64_t fluid = phase_events(trace::BackgroundMode::kFluid, bg);
  const std::uint64_t fluid0 =
      phase_events(trace::BackgroundMode::kFluid, none);
  ASSERT_GT(packet, packet0);
  const double packet_bg = static_cast<double>(packet - packet0);
  // Fluid background cost is bounded by its step events (two sources); the
  // baseline difference can be slightly negative through replay coupling,
  // so clamp at the step count.
  const double fluid_bg = std::max(
      static_cast<double>(fluid) - static_cast<double>(fluid0),
      static_cast<double>(2 * (seconds(13) / (100 * kMillisecond))));
  EXPECT_GE(packet_bg / fluid_bg, 10.0)
      << "packet bg events " << packet_bg << " fluid bg events " << fluid_bg;
}

TEST(FluidWild, FluidCountersAppearOnlyInFluidMode) {
  WildConfig cfg;
  cfg.isp = experiments::default_isp_models()[0];
  cfg.replay_duration = seconds(5);
  cfg.bg_mode = trace::BackgroundMode::kFluid;
  obs::Recorder rec(true, false);
  {
    obs::ScopedRecorder bind(&rec);
    (void)experiments::run_wild_phase(cfg, Phase::SimOriginal);
  }
  const auto& counters = rec.metrics().counters();
  ASSERT_TRUE(counters.count("fluid.sources"));
  EXPECT_EQ(counters.at("fluid.sources").value(), 2u);
  ASSERT_TRUE(counters.count("fluid.steps"));
  EXPECT_GT(counters.at("fluid.steps").value(), 0u);
  EXPECT_GT(counters.at("fluid.offered_bytes").value(), 0u);

  cfg.bg_mode = trace::BackgroundMode::kPacket;
  obs::Recorder prec(true, false);
  {
    obs::ScopedRecorder bind(&prec);
    (void)experiments::run_wild_phase(cfg, Phase::SimOriginal);
  }
  EXPECT_EQ(prec.metrics().counters().count("fluid.sources"), 0u);
}

// -------------------------------------------------- thread determinism

void expect_identical(const netsim::ReplayMeasurement& a,
                      const netsim::ReplayMeasurement& b) {
  ASSERT_EQ(a.tx_times.size(), b.tx_times.size());
  EXPECT_TRUE(a.tx_times == b.tx_times);
  ASSERT_EQ(a.loss_times.size(), b.loss_times.size());
  EXPECT_TRUE(a.loss_times == b.loss_times);
  ASSERT_EQ(a.rtt_ms.size(), b.rtt_ms.size());
  for (std::size_t i = 0; i < a.rtt_ms.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.rtt_ms[i], &b.rtt_ms[i], sizeof(double)), 0)
        << "rtt sample " << i;
  }
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].at, b.deliveries[i].at);
    EXPECT_EQ(a.deliveries[i].bytes, b.deliveries[i].bytes);
  }
}

TEST(FluidWild, BitIdenticalAcrossThreadCounts) {
  std::vector<WildConfig> configs;
  const auto isps = experiments::default_isp_models();
  for (std::size_t i = 0; i < 3; ++i) {
    WildConfig cfg;
    cfg.isp = isps[i];
    cfg.replay_duration = seconds(5);
    cfg.seed = 11 + i;
    cfg.bg_mode = trace::BackgroundMode::kFluid;
    configs.push_back(cfg);
  }
  const auto run = [&](unsigned threads) {
    return parallel::parallel_map(
        configs.size(),
        [&](std::size_t i) {
          return experiments::run_wild_phase(configs[i], Phase::SimOriginal);
        },
        threads);
  };
  const auto serial = run(1);
  const auto threaded = run(8);
  ASSERT_EQ(serial.size(), configs.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    expect_identical(serial[i].p1.meas, threaded[i].p1.meas);
    expect_identical(serial[i].p2.meas, threaded[i].p2.meas);
    EXPECT_EQ(serial[i].limiter_drops, threaded[i].limiter_drops);
  }
}

// ---------------------------------------------------- verdict parity

TEST(FluidWild, VerdictParityOnTable1MiniSweep) {
  // Three Table-1 cells, each a full WeHeY wild test: the fluid carrier
  // must not change the localization verdict (the client's light 300 kbps
  // background is far from saturating any wild link).
  const auto isps = experiments::default_isp_models();
  const std::size_t kCells = 3;
  std::vector<std::string> packet_verdicts, fluid_verdicts;
  for (std::size_t i = 0; i < kCells; ++i) {
    WildConfig base;
    base.isp = isps[i];
    base.seed = 1;
    for (const auto mode :
         {trace::BackgroundMode::kPacket, trace::BackgroundMode::kFluid}) {
      WildConfig cfg = base;
      cfg.bg_mode = mode;
      const auto t_diff = experiments::build_wild_t_diff(cfg, 10);
      WildConfig test = cfg;
      test.seed = 1000 + i * 17;
      const auto res = experiments::run_wild_test_reported(test, t_diff);
      (mode == trace::BackgroundMode::kPacket ? packet_verdicts
                                              : fluid_verdicts)
          .push_back(core::to_string(res.localization.verdict));
    }
  }
  EXPECT_EQ(packet_verdicts, fluid_verdicts);
}

}  // namespace
}  // namespace wehey
