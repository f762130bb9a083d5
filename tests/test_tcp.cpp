// TCP sender/receiver: throughput, loss recovery, pacing, measurement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "digest.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "transport/range_set.hpp"
#include "transport/tcp.hpp"

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

/// One TCP flow over a single bottleneck link with an ideal reverse path.
struct Harness {
  Simulator sim;
  PacketIdSource ids;
  std::unique_ptr<Demux> demux = std::make_unique<Demux>();
  std::unique_ptr<Link> link;
  std::unique_ptr<Pipe> ack_pipe;
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpReceiver> receiver;

  Harness(Rate bw, Time one_way, std::unique_ptr<netsim::QueueDisc> disc,
          TcpConfig cfg = {}, std::uint8_t dscp = 0) {
    link = std::make_unique<Link>(sim, bw, one_way, std::move(disc),
                                  demux.get());
    ack_pipe = std::make_unique<Pipe>(sim, one_way);
    sender = std::make_unique<TcpSender>(sim, ids, cfg, 1, dscp, link.get());
    receiver = std::make_unique<TcpReceiver>(sim, ids, 1, ack_pipe.get());
    ack_pipe->set_next(sender.get());
    demux->add_route(1, receiver.get());
  }
};

TEST(Tcp, BulkTransferCompletesNearLinkRate) {
  Harness h(mbps(10), milliseconds(15),
            std::make_unique<FifoDisc>(125000));
  Time done = -1;
  h.sender->set_on_complete([&] { done = h.sim.now(); });
  h.sender->supply(5'000'000);
  h.sim.run(seconds(60));
  ASSERT_GT(done, 0);
  const double goodput = 5e6 * 8.0 / to_seconds(done);
  EXPECT_GT(goodput, mbps(6));  // >60% of a 10 Mbps link
  EXPECT_TRUE(h.sender->complete());
}

TEST(Tcp, NoLossOnUncongestedPath) {
  // A generous link and a small transfer: nothing should be retransmitted.
  Harness h(mbps(100), milliseconds(10),
            std::make_unique<FifoDisc>(2'000'000));
  h.sender->supply(500'000);
  h.sim.run(seconds(10));
  EXPECT_TRUE(h.sender->complete());
  EXPECT_EQ(h.sender->retransmissions(), 0u);
  EXPECT_EQ(h.sender->timeouts(), 0u);
  EXPECT_EQ(h.receiver->received_bytes(), 500'000);
}

TEST(Tcp, RttEstimateTracksPathRtt) {
  Harness h(mbps(100), milliseconds(20),
            std::make_unique<FifoDisc>(2'000'000));
  h.sender->supply(200'000);
  h.sim.run(seconds(5));
  // True RTT = 40 ms + small serialization.
  EXPECT_NEAR(to_milliseconds(h.sender->srtt()), 40.0, 5.0);
}

TEST(Tcp, RecoversThroughTokenBucketPolicer) {
  // 2 Mbps policer with a shallow queue: the flow must survive and land
  // near the policed rate.
  auto fifo = std::make_unique<FifoDisc>(0);
  auto tbf = std::make_unique<TbfDisc>(mbps(2), 10000, 10000, 0);
  Harness h(mbps(50), milliseconds(15),
            std::make_unique<RateLimiterDisc>(std::move(fifo), std::move(tbf)),
            TcpConfig{}, netsim::kDscpDifferentiated);
  // Keep the flow backlogged for the whole measurement window.
  h.sender->supply(20'000'000);
  h.sim.run(seconds(30));
  const double rate =
      h.receiver->received_bytes() * 8.0 / to_seconds(h.sim.now());
  EXPECT_GT(rate, mbps(1.2));
  EXPECT_LE(rate, mbps(2.4));
  EXPECT_GT(h.sender->retransmissions(), 0u);
}

TEST(Tcp, RetransmissionsRecordedAsLossEvents) {
  auto fifo = std::make_unique<FifoDisc>(0);
  auto tbf = std::make_unique<TbfDisc>(mbps(2), 10000, 10000, 0);
  Harness h(mbps(50), milliseconds(15),
            std::make_unique<RateLimiterDisc>(std::move(fifo), std::move(tbf)),
            TcpConfig{}, netsim::kDscpDifferentiated);
  h.sender->supply(2'000'000);
  h.sim.run(seconds(30));
  const auto& m = h.sender->measurement();
  EXPECT_EQ(m.loss_times.size(), h.sender->retransmissions());
  // Loss events are registered at retransmission times, within tx_times.
  EXPECT_GE(m.tx_times.size(), m.loss_times.size());
}

TEST(Tcp, PacingSpacesPackets) {
  TcpConfig paced;
  paced.pacing = true;
  Harness h(mbps(50), milliseconds(15), std::make_unique<FifoDisc>(0),
            paced);
  h.sender->supply(300'000);
  h.sim.run(seconds(5));
  const auto& tx = h.sender->measurement().tx_times;
  ASSERT_GT(tx.size(), 20u);
  // Count back-to-back transmissions (gap < 10 us).
  int adjacent = 0;
  for (std::size_t i = 1; i < tx.size(); ++i) {
    if (tx[i] - tx[i - 1] < microseconds(10)) ++adjacent;
  }
  // Paced: the vast majority of sends are spaced out.
  EXPECT_LT(static_cast<double>(adjacent) / tx.size(), 0.2);
}

TEST(Tcp, UnpacedSendsBursts) {
  TcpConfig unpaced;
  unpaced.pacing = false;
  Harness h(mbps(50), milliseconds(15), std::make_unique<FifoDisc>(0),
            unpaced);
  h.sender->supply(300'000);
  h.sim.run(seconds(5));
  const auto& tx = h.sender->measurement().tx_times;
  ASSERT_GT(tx.size(), 20u);
  int adjacent = 0;
  for (std::size_t i = 1; i < tx.size(); ++i) {
    if (tx[i] - tx[i - 1] < microseconds(10)) ++adjacent;
  }
  EXPECT_GT(static_cast<double>(adjacent) / tx.size(), 0.5);
}

TEST(Tcp, AppLimitedChunksAllDelivered) {
  Harness h(mbps(50), milliseconds(15),
            std::make_unique<FifoDisc>(1'000'000));
  // Five 100 kB chunks, one per 200 ms.
  for (int i = 0; i < 5; ++i) {
    h.sim.schedule(milliseconds(200.0 * i),
                   [&] { h.sender->supply(100'000); });
  }
  h.sim.run(seconds(10));
  EXPECT_EQ(h.receiver->received_bytes(), 500'000);
  EXPECT_TRUE(h.sender->complete());
}

TEST(Tcp, CompletionCallbackFiresOnce) {
  Harness h(mbps(10), milliseconds(10),
            std::make_unique<FifoDisc>(500'000));
  int completions = 0;
  h.sender->set_on_complete([&] { ++completions; });
  h.sender->supply(50'000);
  h.sim.run(seconds(10));
  EXPECT_EQ(completions, 1);
}

TEST(Tcp, NewRenoFallbackWorks) {
  TcpConfig reno;
  reno.cc = CongestionControl::NewReno;
  Harness h(mbps(10), milliseconds(15),
            std::make_unique<FifoDisc>(125000), reno);
  Time done = -1;
  h.sender->set_on_complete([&] { done = h.sim.now(); });
  h.sender->supply(2'000'000);
  h.sim.run(seconds(60));
  ASSERT_GT(done, 0);
  EXPECT_GT(2e6 * 8.0 / to_seconds(done), mbps(4));
}

TEST(Tcp, ReceiverDelaySamplesReflectPath) {
  Harness h(mbps(100), milliseconds(25),
            std::make_unique<FifoDisc>(2'000'000));
  h.sender->supply(100'000);
  h.sim.run(seconds(5));
  ASSERT_FALSE(h.receiver->delay_samples_ms().empty());
  // One-way delay ~25 ms plus small serialization.
  for (double owd : h.receiver->delay_samples_ms()) {
    EXPECT_GT(owd, 24.0);
    EXPECT_LT(owd, 40.0);
  }
}

TEST(Tcp, SurvivesSevereThrottling) {
  // Offered load far above a 500 kbps policer with a tiny queue: the flow
  // must make steady forward progress (no livelock), even if slowly.
  auto fifo = std::make_unique<FifoDisc>(0);
  auto tbf = std::make_unique<TbfDisc>(kbps(500), 6000, 4500, 0);
  Harness h(mbps(50), milliseconds(15),
            std::make_unique<RateLimiterDisc>(std::move(fifo), std::move(tbf)),
            TcpConfig{}, netsim::kDscpDifferentiated);
  h.sender->supply(1'000'000);
  h.sim.run(seconds(30));
  const double rate =
      h.receiver->received_bytes() * 8.0 / to_seconds(h.sim.now());
  EXPECT_GT(rate, kbps(200));
}

// ------------------------------------------------------------ SACK log

/// Stands in for the sender on the ACK path: consumes each ACK's blocks
/// from the receiver's log, exactly as TcpSender does, and records them
/// together with how many blocks the log still holds afterwards.
struct AckCollector final : netsim::PacketSink {
  std::vector<std::vector<netsim::SackBlock>> acks;
  std::vector<std::size_t> live_after;
  void receive(netsim::Packet pkt) override {
    ASSERT_EQ(pkt.kind, netsim::PacketKind::Ack);
    ASSERT_NE(pkt.sack_log, nullptr);
    auto& blocks = acks.emplace_back();
    pkt.sack_log->consume(
        pkt.sack_first, pkt.sack_count,
        [&blocks](const netsim::SackBlock& b) { blocks.push_back(b); });
    live_after.push_back(pkt.sack_log->live());
  }
};

netsim::Packet data_segment(std::uint64_t seq, std::uint32_t len) {
  netsim::Packet p;
  p.flow = 1;
  p.kind = netsim::PacketKind::Data;
  p.seq = seq;
  p.payload = len;
  p.size = len + 52;
  return p;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges(
    const std::vector<netsim::SackBlock>& blocks) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& b : blocks) out.emplace_back(b.start, b.end);
  return out;
}

TEST(SackLog, AckDroppedByFullFifoIsReleasedByTheNextConsumedAck) {
  Simulator sim;
  PacketIdSource ids;
  AckCollector sender;
  // Room for one 52-byte ACK in the queue behind the one on the wire.
  Link ack_link(sim, mbps(1), milliseconds(1), std::make_unique<FifoDisc>(60),
                &sender);
  TcpReceiver rcv(sim, ids, 1, &ack_link);
  // Three out-of-order segments above a hole at [0, 1000): ACK 1 goes on
  // the wire, ACK 2 waits in the queue, ACK 3 overflows it.
  rcv.receive(data_segment(2000, 1000));
  rcv.receive(data_segment(4000, 1000));
  rcv.receive(data_segment(6000, 1000));
  ASSERT_EQ(ack_link.disc().drop_count(), 1u);
  sim.run();
  ASSERT_EQ(sender.acks.size(), 2u);
  // ACK 3's three blocks are still held: nothing after it was consumed.
  EXPECT_EQ(sender.live_after.back(), 3u);

  rcv.receive(data_segment(8000, 1000));
  sim.run();
  ASSERT_EQ(sender.acks.size(), 3u);
  using R = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  EXPECT_EQ(ranges(sender.acks[0]), (R{{2000, 3000}}));
  EXPECT_EQ(ranges(sender.acks[1]), (R{{4000, 5000}, {2000, 3000}}));
  // The ACK after the drop reads its own blocks intact...
  EXPECT_EQ(ranges(sender.acks[2]),
            (R{{8000, 9000}, {6000, 7000}, {4000, 5000}, {2000, 3000}}));
  // ...and releasing through it also freed the dropped ACK's blocks.
  EXPECT_EQ(sender.live_after.back(), 0u);
}

TEST(SackLog, MoreHolesThanBlocksReportsTheHighestRanges) {
  Simulator sim;
  PacketIdSource ids;
  AckCollector sender;
  TcpReceiver rcv(sim, ids, 1, &sender);
  // 20 isolated out-of-order segments: more holes than SACK blocks.
  for (std::uint64_t k = 1; k <= 20; ++k) {
    rcv.receive(data_segment(2000 * k, 1000));
  }
  ASSERT_EQ(sender.acks.size(), 20u);
  const auto& last = sender.acks.back();
  ASSERT_EQ(last.size(), static_cast<std::size_t>(netsim::kMaxSackBlocks));
  for (std::size_t i = 0; i < last.size(); ++i) {
    const std::uint64_t k = 20 - i;  // highest first
    EXPECT_EQ(last[i].start, 2000 * k) << "block " << i;
    EXPECT_EQ(last[i].end, 2000 * k + 1000) << "block " << i;
  }
  EXPECT_EQ(sender.live_after.back(), 0u);
}

TEST(SackLog, BlocksMatchReceivedSegmentsAfterEveryArrival) {
  Simulator sim;
  PacketIdSource ids;
  AckCollector sender;
  TcpReceiver rcv(sim, ids, 1, &sender);

  // A fixed partition of the byte stream into segments of uneven length,
  // as a sender cuts it: retransmissions repeat a segment's (seq, len).
  constexpr std::size_t kSegments = 150;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> segs;
  std::uint64_t seq = 0;
  for (std::size_t k = 0; k < kSegments; ++k) {
    const auto len = static_cast<std::uint32_t>(600 + 97 * (k % 11));
    segs.emplace_back(seq, len);
    seq += len;
  }

  // Every third segment first, so the receiver holds ~50 holes, more than
  // kMaxSackBlocks; then every segment one to three times, shuffled.
  std::mt19937_64 rng(7);
  std::vector<std::size_t> stream;
  for (std::size_t k = 1; k < kSegments; k += 3) stream.push_back(k);
  std::shuffle(stream.begin(), stream.end(), rng);
  std::vector<std::size_t> rest;
  for (std::size_t k = 0; k < kSegments; ++k) {
    const auto copies = 1 + rng() % 3;
    for (std::size_t c = 0; c < copies; ++c) rest.push_back(k);
  }
  std::shuffle(rest.begin(), rest.end(), rng);
  stream.insert(stream.end(), rest.begin(), rest.end());

  using R = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  std::vector<bool> received(kSegments, false);
  std::size_t max_holes = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::size_t k = stream[i];
    auto pkt = data_segment(segs[k].first, segs[k].second);
    pkt.retransmit = received[k];
    received[k] = true;
    rcv.receive(pkt);

    // Brute-force reference: the in-order prefix, then maximal runs of
    // received segments above it, highest first.
    std::size_t next = 0;
    while (next < kSegments && received[next]) ++next;
    const std::uint64_t rcv_next =
        next < kSegments ? segs[next].first : seq;
    R expected;
    std::size_t holes = 0;
    for (std::size_t j = kSegments; j-- > next;) {
      if (!received[j]) {
        if (j + 1 < kSegments && received[j + 1]) ++holes;
        continue;
      }
      if (j + 1 < kSegments && received[j + 1]) {
        expected.back().first = segs[j].first;
      } else {
        expected.emplace_back(segs[j].first, segs[j].first + segs[j].second);
      }
    }
    max_holes = std::max(max_holes, holes);
    if (expected.size() > static_cast<std::size_t>(netsim::kMaxSackBlocks)) {
      expected.resize(netsim::kMaxSackBlocks);
    }

    ASSERT_EQ(sender.acks.size(), i + 1);
    ASSERT_EQ(rcv.received_in_order_bytes(),
              static_cast<std::int64_t>(rcv_next))
        << "arrival " << i;
    ASSERT_EQ(ranges(sender.acks.back()), expected) << "arrival " << i;
  }
  EXPECT_GT(max_holes, static_cast<std::size_t>(netsim::kMaxSackBlocks));
  EXPECT_EQ(rcv.received_in_order_bytes(), static_cast<std::int64_t>(seq));
}

// ------------------------------------------------------- loss recovery

/// Sits between a sender and its path: logs every retransmission's
/// sequence number under the number of timeouts the sender had taken when
/// it went out, and drops the first `drops[seq]` transmissions of the
/// segment at `seq`.
struct SegmentDropper final : netsim::PacketSink {
  const TcpSender* sender = nullptr;
  netsim::PacketSink* next = nullptr;
  std::map<std::uint64_t, int> drops;
  std::map<std::uint64_t, std::vector<std::uint64_t>> retransmitted;
  void receive(netsim::Packet pkt) override {
    if (pkt.retransmit) retransmitted[sender->timeouts()].push_back(pkt.seq);
    const auto it = drops.find(pkt.seq);
    if (it != drops.end() && it->second > 0) {
      --it->second;
      return;
    }
    next->receive(std::move(pkt));
  }
};

TEST(TcpRecovery, RepairsHolesInOrderOncePerEpisodeAndAgainAfterRto) {
  TcpConfig cfg;
  cfg.pacing = false;
  Simulator sim;
  PacketIdSource ids;
  Demux demux;
  Link link(sim, mbps(50), milliseconds(10), std::make_unique<FifoDisc>(0),
            &demux);
  Pipe ack_pipe(sim, milliseconds(10));
  SegmentDropper dropper;
  dropper.next = &link;
  TcpSender sender(sim, ids, cfg, 1, 0, &dropper);
  dropper.sender = &sender;
  TcpReceiver receiver(sim, ids, 1, &ack_pipe);
  ack_pipe.set_next(&sender);
  demux.add_route(1, &receiver);

  // Three holes in the first window. The repairs of a and b are lost as
  // well, so a stalls the cumulative ACK until the RTO; c's repair lands.
  const std::uint64_t mss = kTcpMss;
  const std::uint64_t a = 2 * mss, b = 4 * mss, c = 6 * mss;
  dropper.drops = {{a, 2}, {b, 2}, {c, 1}};
  sender.supply(static_cast<std::int64_t>(30 * mss));
  sim.run(seconds(10));

  ASSERT_TRUE(sender.complete());
  ASSERT_EQ(sender.timeouts(), 1u);
  ASSERT_EQ(dropper.retransmitted.size(), 2u);
  // Fast recovery repairs every unSACKed segment below the recovery point
  // in ascending order, once each: the holes first, then the segments
  // still in flight when recovery began.
  const auto& fast = dropper.retransmitted[0];
  ASSERT_GE(fast.size(), 3u);
  EXPECT_EQ(fast[0], a);
  EXPECT_EQ(fast[1], b);
  EXPECT_EQ(fast[2], c);
  EXPECT_TRUE(std::is_sorted(fast.begin(), fast.end()));
  EXPECT_EQ(std::adjacent_find(fast.begin(), fast.end()), fast.end());
  // The RTO starts a new episode: a goes out from the timer, and b,
  // repaired before the timeout but never SACKed, is a hole again, found
  // without waiting for a second timeout.
  EXPECT_EQ(dropper.retransmitted[1], (std::vector<std::uint64_t>{a, b}));
  EXPECT_EQ(receiver.received_in_order_bytes(),
            static_cast<std::int64_t>(30 * mss));
}

// ------------------------------------------------------- SACK scoreboard

using Ranges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

Ranges contents(const RangeSet& set) {
  Ranges out;
  for (const auto& r : set) out.emplace_back(r.start, r.end);
  return out;
}

/// Inserts [start, end) into a set holding `before` and returns the gaps
/// it reported.
Ranges gaps_of(RangeSet& set, const Ranges& before, std::uint64_t start,
               std::uint64_t end) {
  for (const auto& [s, e] : before) set.insert(s, e);
  Ranges gaps;
  set.insert(start, end, [&gaps](std::uint64_t from, std::uint64_t to) {
    gaps.emplace_back(from, to);
  });
  return gaps;
}

TEST(RangeSet, GapWalkReportsOnlyTheUncoveredParts) {
  const Ranges one{{100, 200}};
  const Ranges two{{100, 200}, {300, 400}};
  struct Case {
    const char* what;
    Ranges before;
    std::uint64_t start, end;
    Ranges gaps, after;
  };
  const Case cases[] = {
      {"inside one range", one, 120, 150, {}, one},
      {"equal to a range", one, 100, 200, {}, one},
      {"extends a range below", one, 50, 150, {{50, 100}}, {{50, 200}}},
      {"extends a range above", one, 150, 260, {{200, 260}}, {{100, 260}}},
      {"adjacent above", one, 200, 260, {{200, 260}}, {{100, 260}}},
      {"adjacent below", one, 40, 100, {{40, 100}}, {{40, 200}}},
      {"bridges two ranges", two, 150, 350, {{200, 300}}, {{100, 400}}},
      {"fills the hole exactly", two, 200, 300, {{200, 300}}, {{100, 400}}},
      {"covers both with room to spare", two, 0, 500,
       {{0, 100}, {200, 300}, {400, 500}}, {{0, 500}}},
      {"apart, in the hole", two, 220, 280, {{220, 280}},
       {{100, 200}, {220, 280}, {300, 400}}},
      {"apart, above all", two, 500, 600, {{500, 600}},
       {{100, 200}, {300, 400}, {500, 600}}},
      {"into an empty set", {}, 10, 20, {{10, 20}}, {{10, 20}}},
  };
  for (const auto& c : cases) {
    RangeSet set;
    EXPECT_EQ(gaps_of(set, c.before, c.start, c.end), c.gaps) << c.what;
    EXPECT_EQ(contents(set), c.after) << c.what;
  }
}

TEST(RangeSet, EraseBelowDropsAndClipsTheLowRanges) {
  RangeSet set;
  for (const auto& [s, e] : Ranges{{100, 200}, {300, 400}, {500, 600}}) {
    set.insert(s, e);
  }
  set.erase_below(50);
  EXPECT_EQ(contents(set), (Ranges{{100, 200}, {300, 400}, {500, 600}}));
  set.erase_below(200);
  EXPECT_EQ(contents(set), (Ranges{{300, 400}, {500, 600}}));
  set.erase_below(350);
  EXPECT_EQ(contents(set), (Ranges{{350, 400}, {500, 600}}));
  set.erase_below(700);
  EXPECT_TRUE(set.empty());
}

/// Brute-force union of byte ranges: re-sorted and re-merged on every add.
struct ByteUnion {
  Ranges ranges;
  void add(std::uint64_t start, std::uint64_t end) {
    ranges.emplace_back(start, end);
    std::sort(ranges.begin(), ranges.end());
    Ranges merged;
    for (const auto& r : ranges) {
      if (!merged.empty() && r.first <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, r.second);
      } else {
        merged.push_back(r);
      }
    }
    ranges = std::move(merged);
  }
  /// Bytes of the union inside [lo, hi).
  std::int64_t bytes_within(std::uint64_t lo, std::uint64_t hi) const {
    std::int64_t n = 0;
    for (const auto& [s, e] : ranges) {
      const std::uint64_t from = std::max(s, lo), to = std::min(e, hi);
      if (from < to) n += static_cast<std::int64_t>(to - from);
    }
    return n;
  }
};

/// Sits between the ACK path and the sender. Reads each ACK's SACK blocks
/// (SackLog::at, which releases nothing) into a brute-force union, hands
/// the ACK on, then checks the sender's SACKed bytes against that union
/// clipped to the sender's window [una, next_seq).
struct ScoreboardTap final : netsim::PacketSink {
  TcpSender* sender = nullptr;
  ByteUnion blocks;
  std::size_t acks = 0;
  std::size_t mismatches = 0;
  int most_blocks = 0;
  std::int64_t most_sacked = 0;
  void receive(netsim::Packet pkt) override {
    for (std::uint32_t i = 0; i < pkt.sack_count; ++i) {
      const auto& b = pkt.sack_log->at(pkt.sack_first + i);
      if (!b.empty()) blocks.add(b.start, b.end);
    }
    most_blocks = std::max<int>(most_blocks, pkt.sack_count);
    sender->receive(std::move(pkt));
    ++acks;
    const std::int64_t expected =
        blocks.bytes_within(sender->una(), sender->next_seq());
    most_sacked = std::max(most_sacked, expected);
    if (sender->sacked_bytes() != expected && mismatches++ == 0) {
      ADD_FAILURE() << "ACK " << acks << ": sacked_bytes "
                    << sender->sacked_bytes() << ", union " << expected;
    }
  }
};

struct CcCase {
  const char* name;
  CongestionControl cc;
};

void PrintTo(const CcCase& c, std::ostream* os) { *os << c.name; }

class TcpScoreboard : public ::testing::TestWithParam<CcCase> {};

TEST_P(TcpScoreboard, SackedBytesEqualTheUnionOfBlocksThroughDeepPolicer) {
  // TcpPinnedTransfer's deep policer: the window grows, so one recovery
  // episode spans many segments and holes.
  TcpConfig cfg;
  cfg.cc = GetParam().cc;
  Harness h(mbps(50), milliseconds(15),
            std::make_unique<RateLimiterDisc>(
                std::make_unique<FifoDisc>(0),
                std::make_unique<TbfDisc>(mbps(4), 15000, 30000, 0)),
            cfg, netsim::kDscpDifferentiated);
  ScoreboardTap tap;
  tap.sender = h.sender.get();
  h.ack_pipe->set_next(&tap);
  h.sender->supply(6'000'000);
  h.sim.run(seconds(20));

  EXPECT_GT(h.sender->retransmissions(), 0u);
  EXPECT_GT(tap.most_sacked, 0);
  EXPECT_GT(tap.acks, 1000u);
  EXPECT_EQ(tap.mismatches, 0u);
}

TEST_P(TcpScoreboard, SackedBytesEqualTheUnionOfBlocksWithManyHoles) {
  TcpConfig cfg;
  cfg.cc = GetParam().cc;
  cfg.pacing = false;
  Simulator sim;
  PacketIdSource ids;
  Demux demux;
  Link link(sim, mbps(50), milliseconds(10), std::make_unique<FifoDisc>(0),
            &demux);
  Pipe ack_pipe(sim, milliseconds(10));
  SegmentDropper dropper;
  dropper.next = &link;
  TcpSender sender(sim, ids, cfg, 1, 0, &dropper);
  dropper.sender = &sender;
  TcpReceiver receiver(sim, ids, 1, &ack_pipe);
  ScoreboardTap tap;
  tap.sender = &sender;
  ack_pipe.set_next(&tap);
  demux.add_route(1, &receiver);

  // Every other segment of one slow-start flight: 30 holes, more than
  // kMaxSackBlocks. The first hole's repair is lost too, so the episode
  // ends in a timeout with SACKed data still outstanding.
  const std::uint64_t mss = kTcpMss;
  for (std::uint64_t k = 80; k < 140; k += 2) dropper.drops[k * mss] = 1;
  dropper.drops[80 * mss] = 2;
  sender.supply(static_cast<std::int64_t>(400 * mss));
  sim.run(seconds(20));

  ASSERT_TRUE(sender.complete());
  EXPECT_GE(sender.timeouts(), 1u);
  EXPECT_EQ(tap.most_blocks, netsim::kMaxSackBlocks);
  EXPECT_GT(tap.most_sacked, 0);
  EXPECT_EQ(tap.mismatches, 0u);
  EXPECT_EQ(receiver.received_in_order_bytes(),
            static_cast<std::int64_t>(400 * mss));
}

INSTANTIATE_TEST_SUITE_P(
    Cc, TcpScoreboard,
    ::testing::Values(CcCase{"Cubic", CongestionControl::Cubic},
                      CcCase{"NewReno", CongestionControl::NewReno},
                      CcCase{"Bbr", CongestionControl::Bbr}),
    [](const ::testing::TestParamInfo<CcCase>& info) {
      return std::string(info.param.name);
    });

/// A sender variant and the digest of its transfers. A change that moves
/// a digest changed what TCP does, not just how fast it does it.
struct PinnedTransfer {
  std::string name;
  CongestionControl cc;
  bool pacing;
  std::uint64_t digest;
};

void PrintTo(const PinnedTransfer& p, std::ostream* os) { *os << p.name; }

class TcpPinnedTransfer : public ::testing::TestWithParam<PinnedTransfer> {};

// Loss recovery is exact, not approximate: transfers through policers
// that force SACK recovery and RTOs must measure the same transmissions,
// loss events, RTT samples and deliveries, down to the nanosecond. The
// tight policer times out in every variant; the deep one lets the window
// grow, so one recovery episode spans many segments.
TEST_P(TcpPinnedTransfer, MeasurementsMatchPinnedDigest) {
  const auto& p = GetParam();
  TcpConfig cfg;
  cfg.cc = p.cc;
  cfg.pacing = p.pacing;
  struct Policer {
    Rate rate;
    std::int64_t burst, limit, bytes;
  };
  pinned::Digest d;
  std::uint64_t timeouts = 0;
  for (const Policer& pol : {Policer{mbps(1), 6000, 4500, 1'500'000},
                             Policer{mbps(4), 15000, 30000, 6'000'000}}) {
    auto fifo = std::make_unique<FifoDisc>(0);
    auto tbf = std::make_unique<TbfDisc>(pol.rate, pol.burst, pol.limit, 0);
    Harness h(mbps(50), milliseconds(15),
              std::make_unique<RateLimiterDisc>(std::move(fifo),
                                                std::move(tbf)),
              cfg, netsim::kDscpDifferentiated);
    h.sender->supply(pol.bytes);
    h.sim.run(seconds(20));

    const auto& m = h.sender->measurement();
    for (Time t : m.tx_times) d.add(t);
    for (Time t : m.loss_times) d.add(t);
    for (double r : m.rtt_ms) d.add(r);
    for (const auto& del : h.receiver->deliveries()) {
      d.add(del.at);
      d.add(static_cast<std::uint64_t>(del.bytes));
    }
    d.add(h.sender->retransmissions());
    d.add(h.sender->timeouts());
    EXPECT_GT(h.sender->retransmissions(), 0u);
    timeouts += h.sender->timeouts();
  }
  EXPECT_GT(timeouts, 0u);
  EXPECT_EQ(d.h, p.digest) << "actual digest 0x" << std::hex << d.h;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, TcpPinnedTransfer,
    ::testing::Values(
        PinnedTransfer{"CubicPaced", CongestionControl::Cubic, true,
                       0xd9a6c1a97b1203feULL},
        PinnedTransfer{"CubicUnpaced", CongestionControl::Cubic, false,
                       0xd5ac27a042742351ULL},
        PinnedTransfer{"NewRenoPaced", CongestionControl::NewReno, true,
                       0xbbea305b70911a36ULL},
        PinnedTransfer{"NewRenoUnpaced", CongestionControl::NewReno, false,
                       0x5d485caa40a07eceULL},
        PinnedTransfer{"BbrPaced", CongestionControl::Bbr, true,
                       0x71e0166b093ee0c6ULL},
        PinnedTransfer{"BbrUnpaced", CongestionControl::Bbr, false,
                       0x36ff6fd6972e3ae5ULL}),
    [](const ::testing::TestParamInfo<PinnedTransfer>& info) {
      return info.param.name;
    });

// Sweep: bulk transfers across bandwidths complete with sane utilization.
class TcpBandwidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(TcpBandwidthSweep, ReasonableUtilization) {
  const Rate bw = mbps(GetParam());
  Harness h(bw, milliseconds(15),
            std::make_unique<FifoDisc>(static_cast<std::int64_t>(
                bytes_in(bw, milliseconds(100)))));
  const std::int64_t bytes = static_cast<std::int64_t>(bw / 8.0 * 5);  // ~5 s
  Time done = -1;
  h.sender->set_on_complete([&] { done = h.sim.now(); });
  h.sender->supply(bytes);
  h.sim.run(seconds(120));
  ASSERT_GT(done, 0) << "transfer did not complete";
  const double utilization = bytes * 8.0 / to_seconds(done) / bw;
  EXPECT_GT(utilization, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Rates, TcpBandwidthSweep,
                         ::testing::Values(2.0, 5.0, 10.0, 20.0, 50.0));

}  // namespace
}  // namespace wehey::transport
