// The packet tracer.
#include <gtest/gtest.h>

#include <memory>

#include "netsim/link.hpp"
#include "netsim/queue.hpp"
#include "netsim/simulator.hpp"
#include "netsim/tracer.hpp"

namespace wehey::netsim {
namespace {

Packet pkt(FlowId flow, std::uint32_t size, std::uint8_t dscp = 0) {
  Packet p;
  p.flow = flow;
  p.size = size;
  p.payload = size;
  p.dscp = dscp;
  return p;
}

TEST(Tracer, RecordsTransmitsAndDrops) {
  Simulator sim;
  NullSink sink;
  Link link(sim, mbps(8), 0, std::make_unique<FifoDisc>(1500), &sink);
  PacketTracer tracer;
  tracer.attach(link, "l_c");

  // Three packets back-to-back: the first transmits immediately, the
  // second queues (1000 of 1500 bytes), the third overflows.
  for (int i = 0; i < 3; ++i) link.receive(pkt(7, 1000));
  sim.run();

  int transmits = 0, drops = 0;
  for (const auto& ev : tracer.events()) {
    EXPECT_EQ(ev.point, "l_c");
    EXPECT_EQ(ev.flow, 7u);
    if (ev.kind == TraceEventKind::Transmit) ++transmits;
    if (ev.kind == TraceEventKind::Drop) ++drops;
  }
  EXPECT_EQ(transmits, 2);
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(tracer.drops_by_point().at("l_c"), 1u);
}

TEST(Tracer, RecordsDropsOnARateLimitedLink) {
  Simulator sim;
  NullSink sink;
  auto limiter =
      std::make_unique<RateLimiterDisc>(std::make_unique<FifoDisc>(0),
                                        std::make_unique<TbfDisc>(1e6, 3000,
                                                                  3000));
  const RateLimiterDisc& rl = *limiter;
  Link link(sim, mbps(8), 0, std::move(limiter), &sink);
  PacketTracer tracer;
  tracer.attach(link, "l_c");
  // A burst far above the policer's bucket and queue: the drops happen
  // inside the TBF class, and the tracer on the link sees each one.
  for (int i = 0; i < 10; ++i) {
    link.receive(pkt(7, 1500, kDscpDifferentiated));
  }
  sim.run();

  ASSERT_GT(rl.throttled_drops(), 0u);
  EXPECT_EQ(tracer.drops_by_point().at("l_c"), rl.throttled_drops());
  EXPECT_EQ(link.disc().drop_count(), rl.throttled_drops());
}

TEST(Tracer, EventsAreTimeOrdered) {
  Simulator sim;
  NullSink sink;
  Link link(sim, mbps(8), 0, std::make_unique<FifoDisc>(0), &sink);
  PacketTracer tracer;
  tracer.attach(link, "x");
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(i * kMillisecond, [&] { link.receive(pkt(1, 500)); });
  }
  sim.run();
  ASSERT_EQ(tracer.size(), 10u);
  for (std::size_t i = 1; i < tracer.events().size(); ++i) {
    EXPECT_GE(tracer.events()[i].at, tracer.events()[i - 1].at);
  }
}

TEST(Tracer, RecordsAFifoTransmissionBeforeItsPacketArrives) {
  Simulator sim;
  NullSink sink;
  // 1000 B take 1 ms at 8 Mbps; the packet reaches the sink at 11 ms.
  Link link(sim, mbps(8), milliseconds(10), std::make_unique<FifoDisc>(0),
            &sink);
  PacketTracer tracer;
  tracer.attach(link, "x");
  link.receive(pkt(1, 1000));
  sim.run(milliseconds(5));
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.events()[0].at, milliseconds(1));
  EXPECT_EQ(sink.packets(), 0u);
}

TEST(Tracer, FlowFilterAndCapacity) {
  Simulator sim;
  NullSink sink;
  Link link(sim, kGbps, 0, std::make_unique<FifoDisc>(0), &sink);
  PacketTracer tracer;
  tracer.set_capacity(5);
  tracer.attach(link, "x");
  for (int i = 0; i < 10; ++i) link.receive(pkt(i % 2 ? 1 : 2, 100));
  sim.run();
  EXPECT_EQ(tracer.size(), 5u);
  EXPECT_EQ(tracer.suppressed(), 5u);
  for (const auto& ev : tracer.flow_events(1)) EXPECT_EQ(ev.flow, 1u);
}

TEST(Tracer, DumpWritesAsciiTrace) {
  Simulator sim;
  NullSink sink;
  Link link(sim, mbps(10), 0, std::make_unique<FifoDisc>(0), &sink);
  PacketTracer tracer;
  tracer.attach(link, "l1");
  link.receive(pkt(3, 1250, kDscpDifferentiated));
  sim.run();

  char buf[256] = {};
  std::FILE* mem = fmemopen(buf, sizeof buf, "w");
  ASSERT_NE(mem, nullptr);
  tracer.dump(mem);
  std::fclose(mem);
  const std::string text(buf);
  EXPECT_NE(text.find("t l1 flow=3 dscp=1"), std::string::npos);
  EXPECT_NE(text.find("size=1250"), std::string::npos);
}

}  // namespace
}  // namespace wehey::netsim
