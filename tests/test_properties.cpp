// Cross-cutting property tests: determinism, conservation laws, and
// invariants that must hold across parameter ranges.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "core/loss_series.hpp"
#include "core/tomography.hpp"
#include "experiments/params.hpp"
#include "experiments/scenario.hpp"
#include "netsim/link.hpp"
#include "netsim/queue.hpp"
#include "netsim/simulator.hpp"
#include "trace/apps.hpp"

namespace wehey {
namespace {

// --- Determinism: the whole stack is reproducible from the seed. ---

TEST(Determinism, IdenticalPhasesFromIdenticalSeeds) {
  auto cfg = experiments::default_scenario("Zoom", 404);
  cfg.replay_duration = seconds(10);
  const auto a = experiments::run_phase(cfg, experiments::Phase::SimOriginal);
  const auto b = experiments::run_phase(cfg, experiments::Phase::SimOriginal);
  EXPECT_EQ(a.p1.meas.tx_times, b.p1.meas.tx_times);
  EXPECT_EQ(a.p1.meas.loss_times, b.p1.meas.loss_times);
  EXPECT_EQ(a.p2.meas.loss_times, b.p2.meas.loss_times);
  EXPECT_DOUBLE_EQ(a.p1.avg_throughput_bps, b.p1.avg_throughput_bps);
  EXPECT_EQ(a.limiter_drops, b.limiter_drops);
}

TEST(Determinism, DifferentSeedsDiffer) {
  auto cfg1 = experiments::default_scenario("Zoom", 405);
  auto cfg2 = experiments::default_scenario("Zoom", 406);
  cfg1.replay_duration = cfg2.replay_duration = seconds(10);
  const auto a =
      experiments::run_phase(cfg1, experiments::Phase::SimOriginal);
  const auto b =
      experiments::run_phase(cfg2, experiments::Phase::SimOriginal);
  EXPECT_NE(a.p1.meas.loss_times, b.p1.meas.loss_times);
}

// --- Conservation: what goes in comes out or is dropped. ---

class TbfConservation : public ::testing::TestWithParam<double> {};

TEST_P(TbfConservation, AcceptedPlusDroppedEqualsOffered) {
  const Rate rate = mbps(GetParam());
  netsim::TbfDisc tbf(rate, 20000, 10000, 0);
  Rng rng(42);
  std::uint64_t offered = 0, accepted = 0, drained = 0;
  Time now = 0;
  for (int i = 0; i < 5000; ++i) {
    netsim::Packet p;
    p.size = 500 + static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
    ++offered;
    accepted += tbf.enqueue(p, now);
    while (tbf.dequeue(now)) ++drained;
    now += microseconds(300);
  }
  while (tbf.dequeue(now + seconds(10))) ++drained;
  EXPECT_EQ(accepted, drained);
  EXPECT_EQ(offered, accepted + tbf.drop_count());
}

INSTANTIATE_TEST_SUITE_P(Rates, TbfConservation,
                         ::testing::Values(0.5, 2.0, 8.0, 20.0));

TEST(Conservation, LinkDeliversEverythingAccepted) {
  netsim::Simulator sim;
  netsim::NullSink sink;
  netsim::Link link(sim, mbps(5), milliseconds(3),
                    std::make_unique<netsim::FifoDisc>(30000), &sink);
  std::uint64_t offered = 0;
  for (int i = 0; i < 400; ++i) {
    sim.schedule_at(i * milliseconds(1), [&] {
      netsim::Packet p;
      p.size = 1200;
      ++offered;
      link.receive(p);
    });
  }
  sim.run();
  EXPECT_EQ(offered, sink.packets() + link.disc().drop_count());
  EXPECT_EQ(link.delivered_packets(), sink.packets());
}

// --- Loss-series invariants across interval sizes. ---

class LossSeriesInvariants : public ::testing::TestWithParam<int> {};

TEST_P(LossSeriesInvariants, RatesBoundedAndFiltered) {
  Rng rng(GetParam());
  netsim::ReplayMeasurement m1, m2;
  m1.start = m2.start = 0;
  m1.end = m2.end = seconds(20);
  for (int i = 0; i < 4000; ++i) {
    const Time at = static_cast<Time>(rng.uniform(0, to_seconds(m1.end)) *
                                      kSecond);
    m1.tx_times.push_back(at);
    m2.tx_times.push_back(at + milliseconds(3));
    if (rng.bernoulli(0.05)) m1.loss_times.push_back(at);
    if (rng.bernoulli(0.08)) m2.loss_times.push_back(at);
  }
  for (double sigma_s : {0.2, 0.5, 1.0, 2.5}) {
    const auto s =
        core::make_loss_rate_series(m1, m2, seconds(sigma_s), {});
    EXPECT_LE(s.retained_intervals, s.total_intervals);
    EXPECT_EQ(s.path1.size(), s.path2.size());
    for (double v : s.path1) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    // The filter guarantees at least one loss per retained interval.
    for (std::size_t t = 0; t < s.path1.size(); ++t) {
      EXPECT_GT(s.path1[t] + s.path2[t], 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossSeriesInvariants,
                         ::testing::Values(1, 2, 3, 4));

// --- Tomography solutions stay in [0, 1] on arbitrary inputs. ---

class TomographyBounds : public ::testing::TestWithParam<int> {};

TEST_P(TomographyBounds, SolutionsAreProbabilities) {
  Rng rng(100 + GetParam());
  std::vector<double> loss1, loss2;
  for (int i = 0; i < 60; ++i) {
    loss1.push_back(rng.uniform() * 0.3);
    loss2.push_back(rng.uniform() * 0.3);
  }
  for (double tau : {0.01, 0.05, 0.1, 0.2}) {
    const auto perf = core::bin_loss_tomo_series(loss1, loss2, tau);
    if (!perf.valid) continue;
    EXPECT_GE(perf.x_c, 0.0);
    EXPECT_LE(perf.x_c, 1.0);
    EXPECT_GE(perf.x_1, 0.0);
    EXPECT_LE(perf.x_1, 1.0);
    EXPECT_GE(perf.x_2, 0.0);
    EXPECT_LE(perf.x_2, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TomographyBounds,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- Trace transforms hold for every app. ---

class TraceTransformSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(TraceTransformSweep, ExtensionAndInversionInvariants) {
  Rng rng(7);
  trace::AppTrace t =
      GetParam() == "Netflix"
          ? trace::make_tcp_app_trace(seconds(8), rng)
          : trace::make_udp_app_trace(GetParam(), seconds(8), rng);
  const auto extended = trace::extend(t, seconds(45));
  EXPECT_GE(extended.duration(), seconds(45));
  // Extension preserves the average rate (within the repeat-gap slack).
  EXPECT_NEAR(extended.average_rate() / t.average_rate(), 1.0, 0.1);
  const auto inverted = trace::bit_invert(extended);
  EXPECT_EQ(inverted.packets.size(), extended.packets.size());
  EXPECT_FALSE(inverted.carries_sni);
  EXPECT_EQ(inverted.total_bytes(), extended.total_bytes());
}

INSTANTIATE_TEST_SUITE_P(Apps, TraceTransformSweep,
                         ::testing::Values("Netflix", "Skype", "WhatsApp",
                                           "MSTeams", "Zoom", "Webex"));

}  // namespace
}  // namespace wehey
