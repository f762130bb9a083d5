// The transparent split-TCP proxy and the §7 measurement blind spot.
#include <gtest/gtest.h>

#include <memory>

#include "netsim/link.hpp"
#include "netsim/queue.hpp"
#include "netsim/simulator.hpp"
#include "transport/proxy.hpp"
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

/// origin --lossless link-- [proxy] --policer link-- client
struct ProxiedPath {
  Simulator sim;
  PacketIdSource ids;
  TcpConfig cfg;
  Demux at_proxy;
  Demux at_client;
  std::unique_ptr<Link> upstream_link;    // origin -> proxy, clean
  std::unique_ptr<Link> downstream_link;  // proxy -> client, policed
  std::unique_ptr<Pipe> ack_to_origin;
  std::unique_ptr<Pipe> ack_to_proxy;
  std::unique_ptr<TcpSender> origin;
  std::unique_ptr<SplitTcpProxy> proxy;
  std::unique_ptr<TcpReceiver> client;

  explicit ProxiedPath(Rate policer_rate) {
    downstream_link = std::make_unique<Link>(
        sim, mbps(50), milliseconds(10),
        std::make_unique<RateLimiterDisc>(
            std::make_unique<FifoDisc>(0),
            std::make_unique<TbfDisc>(
                policer_rate,
                static_cast<std::int64_t>(
                    bytes_in(policer_rate, milliseconds(40))),
                static_cast<std::int64_t>(
                    bytes_in(policer_rate, milliseconds(20))),
                0)),
        &at_client);
    upstream_link = std::make_unique<Link>(
        sim, mbps(50), milliseconds(10),
        std::make_unique<FifoDisc>(0), &at_proxy);  // lossless upstream
    ack_to_origin = std::make_unique<Pipe>(sim, milliseconds(10));
    ack_to_proxy = std::make_unique<Pipe>(sim, milliseconds(10));

    origin = std::make_unique<TcpSender>(sim, ids, cfg, /*flow=*/1,
                                         netsim::kDscpDifferentiated,
                                         upstream_link.get());
    proxy = std::make_unique<SplitTcpProxy>(
        sim, ids, cfg, /*upstream_flow=*/1, /*downstream_flow=*/2,
        netsim::kDscpDifferentiated, ack_to_origin.get(),
        downstream_link.get());
    client = std::make_unique<TcpReceiver>(sim, ids, /*flow=*/2,
                                           ack_to_proxy.get());
    ack_to_origin->set_next(origin.get());
    ack_to_proxy->set_next(&proxy->downstream_ack_in());
    at_proxy.add_route(1, &proxy->upstream_in());
    at_client.add_route(2, client.get());
  }
};

TEST(Proxy, RelaysAllBytes) {
  ProxiedPath p(mbps(20));  // effectively unthrottled
  p.origin->supply(500'000);
  p.sim.run(seconds(20));
  EXPECT_EQ(p.proxy->bytes_relayed(), 500'000);
  EXPECT_EQ(p.client->received_in_order_bytes(), 500'000);
  EXPECT_TRUE(p.proxy->downstream_sender().complete());
}

TEST(Proxy, HidesDownstreamLossFromOrigin) {
  // A 2 Mbps policer downstream of the proxy: the proxy's sender bears
  // the retransmissions; the origin server sees a clean path.
  ProxiedPath p(mbps(2));
  p.origin->supply(6'000'000);
  p.sim.run(seconds(20));

  EXPECT_GT(p.proxy->downstream_sender().retransmissions(), 10u);
  // The origin's retransmission-based loss estimate is (nearly) blind:
  // the §7 measurement gap.
  EXPECT_LT(p.origin->measurement().loss_rate(), 0.005);
  // The client still experiences the throttling at the application layer.
  const double client_rate =
      p.client->received_bytes() * 8.0 / to_seconds(p.sim.now());
  EXPECT_LT(client_rate, mbps(2.6));
}

TEST(Proxy, ClientSideThroughputStillDetectsThrottling) {
  // WeHe's client-side throughput samples remain a valid detection
  // signal behind the proxy: throttled vs unthrottled runs differ.
  ProxiedPath throttled(mbps(1.5));
  throttled.origin->supply(6'000'000);
  throttled.sim.run(seconds(20));
  ProxiedPath open(mbps(30));
  open.origin->supply(6'000'000);
  open.sim.run(seconds(20));
  const double rate_throttled =
      throttled.client->received_bytes() * 8.0 /
      to_seconds(throttled.sim.now());
  const double rate_open =
      open.client->received_bytes() * 8.0 / to_seconds(open.sim.now());
  EXPECT_LT(rate_throttled, 0.7 * rate_open);
}

}  // namespace
}  // namespace wehey::transport
