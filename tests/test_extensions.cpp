// The §7 / §3.2 extension components: per-flow rate limiting with the
// same-flow countermeasure, the coupled-bottleneck test, BBR, and IP
// alias resolution.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "core/coupling.hpp"
#include "core/loss_correlation.hpp"
#include "experiments/params.hpp"
#include "experiments/scenario.hpp"
#include "netsim/link.hpp"
#include "netsim/queue.hpp"
#include "netsim/simulator.hpp"
#include "topology/alias.hpp"
#include "topology/construction.hpp"
#include "transport/tcp.hpp"

namespace wehey {
namespace {

netsim::Packet diff_packet(netsim::FlowId flow, std::uint32_t size,
                           netsim::FlowId key = 0) {
  netsim::Packet p;
  p.flow = flow;
  p.policer_key = key;
  p.size = size;
  p.payload = size;
  p.dscp = netsim::kDscpDifferentiated;
  return p;
}

TEST(PerFlowLimiter, OneBucketPerFlow) {
  netsim::PerFlowRateLimiterDisc disc(std::make_unique<netsim::FifoDisc>(0),
                                      mbps(1), 3000, 3000);
  // Each flow's bucket admits burst+limit = 6000 B, then polices.
  for (netsim::FlowId flow : {1u, 2u, 3u}) {
    for (int i = 0; i < 6; ++i) disc.enqueue(diff_packet(flow, 1500), 0);
  }
  EXPECT_EQ(disc.flow_bucket_count(), 3u);
  // Per flow: 2 pass tokens at t=0 into... enqueue admits up to limit
  // (3000 B backlog) after tokens; 6x1500 = 9000 offered per flow, burst
  // 3000 forwarded eventually + 3000 queued -> 2 drops per flow minimum.
  EXPECT_GE(disc.throttled_drops(), 3u);
}

TEST(PerFlowLimiter, SpoofedKeysShareOneBucket) {
  netsim::PerFlowRateLimiterDisc disc(std::make_unique<netsim::FifoDisc>(0),
                                      mbps(1), 3000, 3000);
  disc.enqueue(diff_packet(1, 1500, /*key=*/7), 0);
  disc.enqueue(diff_packet(2, 1500, /*key=*/7), 0);
  EXPECT_EQ(disc.flow_bucket_count(), 1u);
}

TEST(PerFlowLimiter, DefaultClassBypasses) {
  netsim::PerFlowRateLimiterDisc disc(std::make_unique<netsim::FifoDisc>(0),
                                      kbps(1), 1500, 0);
  netsim::Packet p;
  p.flow = 9;
  p.size = 1500;
  p.dscp = netsim::kDscpDefault;
  EXPECT_TRUE(disc.enqueue(p, 0));
  EXPECT_TRUE(disc.dequeue(0).has_value());
  EXPECT_EQ(disc.flow_bucket_count(), 0u);
}

TEST(Coupling, DetectsComplementaryFlows) {
  // Two flows sharing one bucket of rate R: y1 + y2 ~ R, individually
  // oscillating.
  Rng rng(3);
  std::vector<double> y1, y2;
  for (int i = 0; i < 100; ++i) {
    const double share = 0.2 + 0.6 * rng.uniform();
    const double total = rng.normal(2e6, 4e4);
    y1.push_back(total * share);
    y2.push_back(total * (1.0 - share));
  }
  const auto res = core::coupled_bottleneck_test(y1, y2);
  ASSERT_TRUE(res.valid);
  EXPECT_TRUE(res.coupled);
  EXPECT_LT(res.correlation, 0.0);
  EXPECT_LT(res.ratio, 0.5);
}

TEST(Coupling, RejectsIndividuallyPinnedFlows) {
  // Separate identical policers: each flow pinned at its own rate.
  Rng rng(5);
  std::vector<double> y1, y2;
  for (int i = 0; i < 100; ++i) {
    y1.push_back(rng.normal(1e6, 2e4));
    y2.push_back(rng.normal(1e6, 2e4));
  }
  const auto res = core::coupled_bottleneck_test(y1, y2);
  ASSERT_TRUE(res.valid);
  EXPECT_FALSE(res.coupled);  // individual CoV below the floor
}

TEST(Coupling, RejectsCoMovingFlows) {
  // Collective bottleneck shared with lots of other traffic: the two
  // flows rise and fall together (positive correlation, aggregate varies
  // as much as the parts).
  Rng rng(7);
  std::vector<double> y1, y2;
  for (int i = 0; i < 100; ++i) {
    const double env = 1e6 * (1.0 + 0.5 * std::sin(i / 7.0));
    y1.push_back(env * rng.normal(1.0, 0.1));
    y2.push_back(env * rng.normal(1.0, 0.1));
  }
  const auto res = core::coupled_bottleneck_test(y1, y2);
  ASSERT_TRUE(res.valid);
  EXPECT_FALSE(res.coupled);
  EXPECT_GT(res.correlation, 0.0);
}

TEST(Coupling, InvalidOnShortInput) {
  const std::vector<double> tiny{1, 2, 3};
  EXPECT_FALSE(core::coupled_bottleneck_test(tiny, tiny).valid);
}

TEST(Bbr, NoLossNoQueueOnCleanPath) {
  using namespace transport;
  netsim::Simulator sim;
  netsim::PacketIdSource ids;
  TcpConfig cfg;
  cfg.cc = CongestionControl::Bbr;
  auto demux = std::make_unique<netsim::Demux>();
  auto link = std::make_unique<netsim::Link>(
      sim, mbps(10), milliseconds(15),
      std::make_unique<netsim::FifoDisc>(125000), demux.get());
  auto pipe = std::make_unique<netsim::Pipe>(sim, milliseconds(15));
  TcpSender snd(sim, ids, cfg, 1, 0, link.get());
  TcpReceiver rcv(sim, ids, 1, pipe.get());
  pipe->set_next(&snd);
  demux->add_route(1, &rcv);
  Time done = -1;
  snd.set_on_complete([&] { done = sim.now(); });
  snd.supply(5'000'000);
  sim.run(seconds(60));
  ASSERT_GT(done, 0);
  // BBR's signature: near-capacity goodput with (almost) no retransmits
  // and no standing queue (srtt stays near the propagation RTT).
  EXPECT_GT(5e6 * 8.0 / to_seconds(done), mbps(7.5));
  EXPECT_LE(snd.retransmissions(), 5u);
  EXPECT_LT(to_milliseconds(snd.srtt()), 45.0);
}

TEST(Bbr, ConvergesToPolicerRate) {
  using namespace transport;
  netsim::Simulator sim;
  netsim::PacketIdSource ids;
  TcpConfig cfg;
  cfg.cc = CongestionControl::Bbr;
  auto demux = std::make_unique<netsim::Demux>();
  auto fifo = std::make_unique<netsim::FifoDisc>(0);
  auto tbf = std::make_unique<netsim::TbfDisc>(mbps(2), 15000, 15000, 0);
  auto link = std::make_unique<netsim::Link>(
      sim, mbps(50), milliseconds(15),
      std::make_unique<netsim::RateLimiterDisc>(std::move(fifo),
                                                std::move(tbf)),
      demux.get());
  auto pipe = std::make_unique<netsim::Pipe>(sim, milliseconds(15));
  TcpSender snd(sim, ids, cfg, 1, netsim::kDscpDifferentiated, link.get());
  TcpReceiver rcv(sim, ids, 1, pipe.get());
  pipe->set_next(&snd);
  demux->add_route(1, &rcv);
  snd.supply(20'000'000);
  sim.run(seconds(20));
  const double rate =
      rcv.received_bytes() * 8.0 / to_seconds(sim.now());
  // Delivered goodput approaches the policed rate.
  EXPECT_GT(rate, mbps(1.4));
  EXPECT_LE(rate, mbps(2.3));
}

TEST(PerFlowScenario, HonestRepliesAreNotLocalized) {
  auto cfg = experiments::default_scenario("Netflix", 71);
  cfg.placement = experiments::Placement::PerFlowCommonLink;
  cfg.replay_duration = seconds(30);
  const auto test = experiments::run_simultaneous_test_reported(cfg, "honest");
  // Differentiation is real (per-flow buckets throttle the replays)...
  EXPECT_TRUE(test.localization.confirmation_passed);
  // ...but the buckets are independent: no common bottleneck.
  const auto& original = test.phases[0];
  const auto corr = core::loss_trend_correlation(
      original.p1.meas, original.p2.meas, milliseconds(35));
  EXPECT_FALSE(corr.common_bottleneck);
  const auto coupled = core::coupled_bottleneck_test(
      original.p1.meas.throughput_samples(100),
      original.p2.meas.throughput_samples(100));
  EXPECT_FALSE(coupled.coupled);
}

TEST(PerFlowScenario, SpoofedReplaysAreCoupled) {
  auto cfg = experiments::default_scenario("Netflix", 73);
  cfg.placement = experiments::Placement::PerFlowCommonLink;
  cfg.spoof_same_flow = true;
  cfg.replay_duration = seconds(30);
  const auto test =
      experiments::run_simultaneous_test_reported(cfg, "spoofed");
  EXPECT_TRUE(test.localization.confirmation_passed);
  const auto& original = test.phases[0];
  const auto coupled = core::coupled_bottleneck_test(
      original.p1.meas.throughput_samples(100),
      original.p2.meas.throughput_samples(100));
  EXPECT_TRUE(coupled.coupled);
}

TEST(Alias, ResolvesCoReportedAddresses) {
  topology::TracerouteRecord rec;
  rec.server = "s1";
  rec.dst_ip = "100.0.1.77";
  rec.dst_asn = 64500;
  topology::Hop hop;
  hop.reported_ips = {"172.16.1.1", "172.16.1.19"};
  hop.asn = 65100;
  rec.hops.push_back(hop);
  EXPECT_FALSE(rec.alias_consistent());

  topology::AliasResolver resolver;
  resolver.learn({rec});
  EXPECT_EQ(resolver.canonical("172.16.1.19"),
            resolver.canonical("172.16.1.1"));
  EXPECT_EQ(resolver.canonical("10.9.9.9"), "10.9.9.9");  // unseen

  const auto resolved = resolver.resolve({rec});
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_TRUE(resolved[0].alias_consistent());
}

TEST(Alias, TransitiveMerge) {
  auto make = [](std::vector<std::string> ips) {
    topology::TracerouteRecord rec;
    topology::Hop hop;
    hop.reported_ips = std::move(ips);
    rec.hops.push_back(hop);
    return rec;
  };
  topology::AliasResolver resolver;
  resolver.learn({make({"a", "b"}), make({"b", "c"})});
  EXPECT_EQ(resolver.canonical("a"), resolver.canonical("c"));
}

}  // namespace
}  // namespace wehey
