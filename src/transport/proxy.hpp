// A transparent split-TCP proxy (§7: "middleboxes such as transparent TCP
// proxies may hide end-to-end packet loss from the server").
//
// The proxy terminates the upstream connection (it ACKs the origin
// server's segments itself) and re-originates a downstream connection to
// the client. Losses downstream of the proxy are repaired by the *proxy's*
// sender, so the origin server's retransmission-based loss estimate goes
// dark — exactly the measurement blind spot the paper discusses. The
// client-side application-layer throughput still reflects the throttling.
#pragma once

#include <memory>

#include "netsim/packet.hpp"
#include "netsim/simulator.hpp"
#include "transport/tcp.hpp"

namespace wehey::transport {

class SplitTcpProxy {
 public:
  /// The proxy forwards flow `upstream_flow` arriving from the origin to
  /// a new downstream connection `downstream_flow` toward `downstream`
  /// (the next network element toward the client). `upstream_ack_out` is
  /// the reverse path back to the origin server.
  SplitTcpProxy(netsim::Simulator& sim, netsim::PacketIdSource& ids,
                const TcpConfig& cfg, netsim::FlowId upstream_flow,
                netsim::FlowId downstream_flow, std::uint8_t dscp,
                netsim::PacketSink* upstream_ack_out,
                netsim::PacketSink* downstream);

  /// Upstream-facing data input (wire packets from the origin server).
  netsim::PacketSink& upstream_in() { return *upstream_rx_; }
  /// Downstream-facing ACK input (ACKs from the client).
  netsim::PacketSink& downstream_ack_in() { return *downstream_tx_; }

  const TcpSender& downstream_sender() const { return *downstream_tx_; }
  std::int64_t bytes_relayed() const { return relayed_; }

 private:
  std::unique_ptr<TcpReceiver> upstream_rx_;
  std::unique_ptr<TcpSender> downstream_tx_;
  std::int64_t relayed_ = 0;
};

}  // namespace wehey::transport
