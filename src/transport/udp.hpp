// UDP trace replay (§3.4).
//
// The sender replays an AppTrace packet-for-packet: original sizes and
// content, transmit times either as recorded or re-timed to a Poisson
// process (done beforehand by trace::poissonize — the PASTA modification).
// The client tracks packet loss from sequence-number gaps: a loss is
// registered when the first later packet arrives, which is close to the
// true drop time (much closer than TCP's retransmission-based estimate).
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "netsim/measure.hpp"
#include "netsim/packet.hpp"
#include "netsim/simulator.hpp"
#include "trace/trace.hpp"

namespace wehey::transport {

class UdpReplaySender {
 public:
  /// Schedules every packet of `t` starting at `start`. The trace must
  /// already carry the desired timing discipline.
  /// `policer_key` (0: the flow id) is the key a per-flow rate-limiter
  /// classifies on; the §7 countermeasure gives both replays one key.
  UdpReplaySender(netsim::Simulator& sim, netsim::PacketIdSource& ids,
                  netsim::FlowId flow, std::uint8_t dscp,
                  netsim::PacketSink* out, const trace::AppTrace& t,
                  Time start, netsim::FlowId policer_key = 0);

  // The pending send event points back at this sender.
  UdpReplaySender(const UdpReplaySender&) = delete;
  UdpReplaySender& operator=(const UdpReplaySender&) = delete;

  std::uint64_t packets_scheduled() const { return tx_times_.size(); }
  const std::vector<Time>& tx_times() const { return tx_times_; }
  Time start() const { return start_; }
  Time end() const { return end_; }

 private:
  /// Transmit trace packet `i` now.
  void send(std::size_t i);

  netsim::Simulator& sim_;
  netsim::PacketSink* out_;
  netsim::FlowId flow_;
  netsim::FlowId policer_key_;
  std::uint8_t dscp_;
  std::uint64_t first_id_ = 0;
  std::vector<Time> tx_times_;
  std::vector<std::uint32_t> payloads_;
  Time start_ = 0;
  Time end_ = 0;
};

class UdpReplayReceiver final : public netsim::PacketSink {
 public:
  explicit UdpReplayReceiver(netsim::Simulator& sim) : sim_(sim) {}

  void receive(netsim::Packet pkt) override;

  /// Account packets that never arrived at all (tail losses): call once
  /// after the replay with the sender's packet count; missing trailing
  /// sequence numbers are registered as lost at `at`.
  void finalize(std::uint64_t packets_sent, Time at);

  const std::vector<netsim::Delivery>& deliveries() const {
    return deliveries_;
  }
  const std::vector<Time>& loss_times() const { return loss_times_; }
  const std::vector<double>& delay_samples_ms() const { return owd_ms_; }
  std::uint64_t received_packets() const { return deliveries_.size(); }

 private:
  netsim::Simulator& sim_;
  std::uint64_t expected_seq_ = 0;
  std::vector<netsim::Delivery> deliveries_;
  std::vector<Time> loss_times_;
  std::vector<double> owd_ms_;
};

/// Assemble the combined path measurement from a UDP sender/receiver pair.
netsim::ReplayMeasurement udp_measurement(const UdpReplaySender& sender,
                                          const UdpReplayReceiver& receiver);

}  // namespace wehey::transport
