// The QUIC-like transport: delivery, loss detection accuracy, recovery.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "netsim/link.hpp"
#include "netsim/queue.hpp"
#include "netsim/simulator.hpp"
#include "transport/quic.hpp"

namespace wehey::transport {
namespace {

using netsim::Demux;
using netsim::FifoDisc;
using netsim::Link;
using netsim::Pipe;
using netsim::PacketIdSource;
using netsim::RateLimiterDisc;
using netsim::Simulator;
using netsim::TbfDisc;

struct Harness {
  Simulator sim;
  PacketIdSource ids;
  Demux demux;
  std::unique_ptr<Link> link;
  std::unique_ptr<Pipe> ack_pipe;
  std::unique_ptr<QuicSender> sender;
  std::unique_ptr<QuicReceiver> receiver;

  Harness(Rate bw, Time one_way, std::unique_ptr<netsim::QueueDisc> disc,
          QuicConfig cfg = {}, std::uint8_t dscp = 0) {
    link = std::make_unique<Link>(sim, bw, one_way, std::move(disc), &demux);
    ack_pipe = std::make_unique<Pipe>(sim, one_way);
    sender = std::make_unique<QuicSender>(sim, ids, cfg, 1, dscp,
                                          link.get());
    receiver =
        std::make_unique<QuicReceiver>(sim, ids, cfg, 1, ack_pipe.get());
    ack_pipe->set_next(sender.get());
    demux.add_route(1, receiver.get());
  }
};

TEST(SackLog, QuicAckRangesComeOutHighestFirstAsHalfOpen) {
  struct AckCollector final : netsim::PacketSink {
    std::uint64_t largest = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    void receive(netsim::Packet pkt) override {
      largest = pkt.ack;
      ranges.clear();
      ASSERT_NE(pkt.sack_log, nullptr);
      pkt.sack_log->consume(pkt.sack_first, pkt.sack_count,
                            [this](const netsim::SackBlock& b) {
                              ranges.emplace_back(b.start, b.end);
                            });
    }
  };
  Simulator sim;
  PacketIdSource ids;
  AckCollector sender;
  QuicReceiver rcv(sim, ids, QuicConfig{}, 1, &sender);
  for (std::uint64_t pn : {0, 1, 2, 5, 6, 9}) {
    netsim::Packet p;
    p.flow = 1;
    p.kind = netsim::PacketKind::Data;
    p.seq = pn;
    p.ack = pn * 1000;  // stream offset
    p.payload = 1000;
    rcv.receive(p);
  }
  EXPECT_EQ(sender.largest, 9u);
  EXPECT_EQ(sender.ranges,
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                {9, 10}, {5, 7}, {0, 3}}));
}

TEST(Quic, BulkTransferCompletes) {
  Harness h(mbps(10), milliseconds(15),
            std::make_unique<FifoDisc>(125000));
  Time done = -1;
  h.sender->set_on_complete([&] { done = h.sim.now(); });
  h.sender->supply(5'000'000);
  h.sim.run(seconds(60));
  ASSERT_GT(done, 0);
  EXPECT_GT(5e6 * 8.0 / to_seconds(done), mbps(5.5));
  EXPECT_EQ(h.receiver->received_stream_bytes(), 5'000'000);
}

TEST(Quic, NoLossOnCleanPath) {
  Harness h(mbps(100), milliseconds(10),
            std::make_unique<FifoDisc>(0));
  h.sender->supply(500'000);
  h.sim.run(seconds(10));
  EXPECT_TRUE(h.sender->complete());
  EXPECT_EQ(h.sender->packets_declared_lost(), 0u);
}

TEST(Quic, LossCountMatchesActualDrops) {
  // QUIC's packet-number space gives the sender an exact count of lost
  // packets (up to spurious time-threshold declarations) — unlike TCP's
  // retransmission-based over-count.
  auto fifo = std::make_unique<FifoDisc>(0);
  auto tbf = std::make_unique<TbfDisc>(mbps(2), 15000, 15000);
  auto disc =
      std::make_unique<RateLimiterDisc>(std::move(fifo), std::move(tbf));
  auto* disc_raw = disc.get();
  Harness h(mbps(50), milliseconds(15), std::move(disc), QuicConfig{},
            netsim::kDscpDifferentiated);
  h.sender->supply(6'000'000);
  h.sim.run(seconds(40));
  const auto actual_drops = disc_raw->throttled_drops();
  ASSERT_GT(actual_drops, 10u);
  const double ratio =
      static_cast<double>(h.sender->packets_declared_lost()) /
      static_cast<double>(actual_drops);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.2);
}

TEST(Quic, RecoversNearPolicedRate) {
  auto fifo = std::make_unique<FifoDisc>(0);
  auto tbf = std::make_unique<TbfDisc>(mbps(2), 15000, 15000);
  Harness h(mbps(50), milliseconds(15),
            std::make_unique<RateLimiterDisc>(std::move(fifo), std::move(tbf)),
            QuicConfig{}, netsim::kDscpDifferentiated);
  h.sender->supply(20'000'000);
  h.sim.run(seconds(30));
  const double rate = h.receiver->received_stream_bytes() * 8.0 /
                      to_seconds(h.sim.now());
  EXPECT_GT(rate, mbps(1.3));
  EXPECT_LE(rate, mbps(2.3));
}

TEST(Quic, StreamReassemblyDeduplicates) {
  Harness h(mbps(10), milliseconds(10),
            std::make_unique<FifoDisc>(60000));
  h.sender->supply(2'000'000);
  h.sim.run(seconds(30));
  // Whatever was retransmitted, the stream byte count never exceeds the
  // supplied payload.
  EXPECT_EQ(h.receiver->received_stream_bytes(), 2'000'000);
}

TEST(Quic, RttEstimateTracksPath) {
  Harness h(mbps(100), milliseconds(20),
            std::make_unique<FifoDisc>(0));
  h.sender->supply(300'000);
  h.sim.run(seconds(5));
  EXPECT_NEAR(to_milliseconds(h.sender->srtt()), 40.0, 6.0);
}

}  // namespace
}  // namespace wehey::transport
