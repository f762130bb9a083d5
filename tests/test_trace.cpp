#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "digest.hpp"
#include "trace/apps.hpp"
#include "trace/background.hpp"
#include "trace/trace.hpp"

namespace wehey::trace {
namespace {

AppTrace tiny_trace() {
  AppTrace t;
  t.app = "test";
  t.service = "test.example";
  t.transport = Transport::Udp;
  t.packets = {{0, 100}, {milliseconds(10), 200}, {milliseconds(20), 300}};
  return t;
}

TEST(Trace, TotalsAndRate) {
  const auto t = tiny_trace();
  EXPECT_EQ(t.total_bytes(), 600);
  EXPECT_EQ(t.duration(), milliseconds(20));
  EXPECT_DOUBLE_EQ(t.average_rate(), 600 * 8.0 / 0.020);
}

TEST(Trace, BitInvertKeepsShapeDropsSni) {
  const auto t = tiny_trace();
  const auto inv = bit_invert(t);
  EXPECT_FALSE(inv.carries_sni);
  ASSERT_EQ(inv.packets.size(), t.packets.size());
  for (std::size_t i = 0; i < t.packets.size(); ++i) {
    EXPECT_EQ(inv.packets[i].offset, t.packets[i].offset);
    EXPECT_EQ(inv.packets[i].size, t.packets[i].size);
  }
}

TEST(Trace, PoissonizeKeepsSizesAndCount) {
  Rng rng(3);
  auto t = tiny_trace();
  // Grow the trace so the rate statistics are meaningful.
  t = extend(t, seconds(10));
  const auto p = poissonize(t, rng);
  EXPECT_EQ(p.packets.size(), t.packets.size());
  EXPECT_EQ(p.timing, Timing::Poisson);
  std::int64_t bytes = 0;
  for (const auto& pkt : p.packets) bytes += pkt.size;
  EXPECT_EQ(bytes, t.total_bytes());
  // Offsets must be non-decreasing in construction order? They are drawn
  // sequentially, so yes.
  for (std::size_t i = 1; i < p.packets.size(); ++i) {
    EXPECT_GE(p.packets[i].offset, p.packets[i - 1].offset);
  }
  // Mean rate is preserved within sampling noise.
  EXPECT_NEAR(p.average_rate() / t.average_rate(), 1.0, 0.25);
}

TEST(Trace, ExtendReachesMinimumDuration) {
  const auto t = tiny_trace();
  const auto e = extend(t, seconds(45));
  EXPECT_GE(e.duration(), seconds(45));
  EXPECT_EQ(e.packets.size() % t.packets.size(), 0u);
}

TEST(Trace, ExtendNoOpWhenLongEnough) {
  const auto t = tiny_trace();
  const auto e = extend(t, milliseconds(5));
  EXPECT_EQ(e.packets.size(), t.packets.size());
}

class UdpAppCase : public ::testing::TestWithParam<std::string> {};

TEST_P(UdpAppCase, GeneratesPlausibleTrace) {
  Rng rng(11);
  const auto t = make_udp_app_trace(GetParam(), seconds(20), rng);
  EXPECT_EQ(t.transport, Transport::Udp);
  EXPECT_TRUE(t.carries_sni);
  EXPECT_EQ(t.app, GetParam());
  ASSERT_GT(t.packets.size(), 100u);
  EXPECT_GE(t.duration(), seconds(19));
  // Rates: all of WeHe's UDP apps sit between ~30 kbps and ~3 Mbps.
  EXPECT_GT(t.average_rate(), 20e3);
  EXPECT_LT(t.average_rate(), 3e6);
  for (const auto& p : t.packets) {
    EXPECT_GT(p.size, 0u);
    EXPECT_LE(p.size, 1500u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, UdpAppCase,
                         ::testing::ValuesIn(udp_app_names()));

TEST(Apps, TcpTraceShape) {
  Rng rng(13);
  const auto t = make_tcp_app_trace(seconds(20), rng);
  EXPECT_EQ(t.transport, Transport::Tcp);
  EXPECT_GT(t.packets.size(), 1000u);
  // Chunked streaming at roughly 4 Mbps.
  EXPECT_NEAR(t.average_rate() / 4e6, 1.0, 0.5);
}

TEST(Apps, AllAppTracesCoverSixApps) {
  Rng rng(17);
  const auto all = all_app_traces(seconds(5), rng);
  EXPECT_EQ(all.size(), 6u);
  EXPECT_EQ(all.front().transport, Transport::Tcp);
}

TEST(Background, TargetRateRespected) {
  Rng rng(19);
  BackgroundConfig cfg;
  cfg.target_rate = mbps(5);
  cfg.duration = seconds(200);
  cfg.flows_per_second = 20;
  const auto flows = generate_background(cfg, rng);
  ASSERT_GT(flows.size(), 1000u);
  const double offered_rate =
      static_cast<double>(total_bytes(flows)) * 8.0 / 200.0;
  // Heavy-tailed sizes: allow generous tolerance around the target.
  EXPECT_NEAR(offered_rate / mbps(5), 1.0, 0.5);
}

TEST(Background, FlowsSortedAndPositive) {
  Rng rng(23);
  BackgroundConfig cfg;
  cfg.duration = seconds(30);
  const auto flows = generate_background(cfg, rng);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_GT(flows[i].bytes, 0);
    EXPECT_GE(flows[i].start, 0);
    EXPECT_LT(flows[i].start, cfg.duration);
    if (i > 0) {
      EXPECT_GE(flows[i].start, flows[i - 1].start);
    }
  }
}

TEST(Background, MarkDifferentiatedFraction) {
  Rng rng(29);
  BackgroundConfig cfg;
  cfg.duration = seconds(300);
  cfg.flows_per_second = 30;
  auto flows = generate_background(cfg, rng);
  mark_differentiated(flows, 0.75, rng);
  std::size_t marked = 0;
  for (const auto& f : flows) marked += f.differentiated;
  EXPECT_NEAR(static_cast<double>(marked) / flows.size(), 0.75, 0.05);
}

// The workload generator and its fluid carrier are exact: one seeded
// workload must draw the same flows, marks and per-segment rates.
TEST(Background, WorkloadMatchesPinnedDigest) {
  Rng rng(31);
  BackgroundConfig cfg;
  cfg.target_rate = mbps(8);
  cfg.duration = seconds(60);
  cfg.flows_per_second = 10;
  auto flows = generate_background(cfg, rng);
  mark_differentiated(flows, 0.5, rng);
  const FluidProfile profile = fluid_profile(flows, cfg);
  ASSERT_GT(flows.size(), 300u);

  pinned::Digest d;
  for (const auto& f : flows) {
    d.add(f.start);
    d.add(f.bytes);
    d.add(static_cast<std::uint64_t>(f.differentiated));
  }
  d.add(profile.step);
  for (const auto* series : {&profile.dflt, &profile.diff,
                             &profile.burst_dflt, &profile.burst_diff}) {
    d.add(static_cast<std::uint64_t>(series->size()));
    for (double v : *series) d.add(v);
  }
  EXPECT_EQ(d.h, 0xd08939d7023bdef6ULL)
      << "actual digest 0x" << std::hex << d.h;
}

}  // namespace
}  // namespace wehey::trace
