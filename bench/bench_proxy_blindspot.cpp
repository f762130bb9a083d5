// §7: "middleboxes such as transparent TCP proxies may hide end-to-end
// packet loss from the server. For such cases, WeHe already uses
// client-side application-layer throughput samples."
//
// One path, policed downstream, measured with and without a transparent
// split-TCP proxy in front of the policer: the server-side
// retransmission-based loss estimate goes dark behind the proxy, while
// the client-side throughput signal survives.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "netsim/link.hpp"
#include "netsim/queue.hpp"
#include "netsim/simulator.hpp"
#include "transport/proxy.hpp"

using namespace wehey;
using namespace wehey::netsim;
using namespace wehey::transport;

namespace {

struct RunResult {
  double server_loss = 0;  ///< retx-based estimate at the origin
  double middle_loss = 0;  ///< at the proxy (if any)
  double client_mbps = 0;
};

RunResult run(bool with_proxy, Rate policer) {
  Simulator sim;
  PacketIdSource ids;
  TcpConfig cfg;
  Demux at_client, at_proxy;
  auto make_policed_link = [&](PacketSink* to) {
    return std::make_unique<Link>(
        sim, mbps(50), milliseconds(10),
        std::make_unique<RateLimiterDisc>(
            std::make_unique<FifoDisc>(0),
            std::make_unique<TbfDisc>(
                policer,
                static_cast<std::int64_t>(bytes_in(policer, milliseconds(40))),
                static_cast<std::int64_t>(
                    bytes_in(policer, milliseconds(20))),
                0)),
        to);
  };

  RunResult out;
  if (!with_proxy) {
    auto link = make_policed_link(&at_client);
    Pipe ack(sim, milliseconds(10));
    TcpSender origin(sim, ids, cfg, 1, kDscpDifferentiated, link.get());
    TcpReceiver client(sim, ids, 1, &ack);
    ack.set_next(&origin);
    at_client.add_route(1, &client);
    origin.supply(8'000'000);
    sim.run(seconds(20));
    out.server_loss = origin.measurement().loss_rate();
    out.client_mbps =
        client.received_bytes() * 8.0 / to_seconds(sim.now()) / 1e6;
    return out;
  }

  auto downstream = make_policed_link(&at_client);
  auto upstream = std::make_unique<Link>(sim, mbps(50), milliseconds(10),
                                         std::make_unique<FifoDisc>(0),
                                         &at_proxy);
  Pipe ack_origin(sim, milliseconds(10));
  Pipe ack_proxy(sim, milliseconds(10));
  TcpSender origin(sim, ids, cfg, 1, kDscpDifferentiated, upstream.get());
  SplitTcpProxy proxy(sim, ids, cfg, 1, 2, kDscpDifferentiated, &ack_origin,
                      downstream.get());
  TcpReceiver client(sim, ids, 2, &ack_proxy);
  ack_origin.set_next(&origin);
  ack_proxy.set_next(&proxy.downstream_ack_in());
  at_proxy.add_route(1, &proxy.upstream_in());
  at_client.add_route(2, &client);
  origin.supply(8'000'000);
  sim.run(seconds(20));
  out.server_loss = origin.measurement().loss_rate();
  out.middle_loss = proxy.downstream_sender().measurement().loss_rate();
  out.client_mbps =
      client.received_bytes() * 8.0 / to_seconds(sim.now()) / 1e6;
  return out;
}

}  // namespace

int main() {
  bench::print_header("§7 (proxy)", "transparent proxies hide server-side loss");
  obs::ObservedSweep obs_run("bench_proxy_blindspot");
  std::printf("  %-28s | %-11s | %-11s | %s\n", "path", "server loss",
              "proxy loss", "client throughput");
  std::printf("  -----------------------------+-------------+-------------+------\n");
  for (const bool proxied : {false, true}) {
    const auto throttled = run(proxied, mbps(2));
    std::printf("  %-28s | %10.3f%% | %10.3f%% | %.2f Mbps\n",
                proxied ? "policer behind split proxy" : "direct policer",
                100 * throttled.server_loss, 100 * throttled.middle_loss,
                throttled.client_mbps);
  }
  std::printf("\nexpected: behind the proxy, the server's retransmission-"
              "based estimate reads ~0 while the proxy bears the loss; the "
              "client-side throughput (WeHe's detection signal) shows the "
              "throttling either way.\n");
  obs_run.report().verdict = "completed";
  return obs_run.finish() ? 0 : 1;
}
