// A QUIC-like transport (§7: "We did not evaluate our system using QUIC;
// we believe it would perform similarly to whatever underlying congestion
// control algorithm is selected").
//
// The modelled differences from TCP that matter to WeHeY's measurements:
//
//  * every transmission gets a fresh *packet number*; retransmitted data
//    rides a new packet number, so the sender knows exactly which packets
//    were lost (no retransmission ambiguity and no Karn filtering);
//  * ACK frames carry packet-number ranges natively (no 3-block limit);
//  * loss is declared by the packet threshold (3 packets reordering) or
//    the time threshold (9/8 RTT), i.e. the sender's loss events are both
//    accurate and registered close to the true drop time — between TCP's
//    noisy retransmission-based estimate and UDP's client-side gaps;
//  * congestion control is pluggable per QUIC's design; here it is
//    NewReno-style with pacing, and the packet sizes, initial window,
//    probe-timeout floor and RFC 9002 loss thresholds are constants in
//    quic.cpp.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "common/time.hpp"
#include "common/units.hpp"
#include "netsim/measure.hpp"
#include "netsim/packet.hpp"
#include "netsim/sack_log.hpp"
#include "netsim/simulator.hpp"
#include "netsim/timer.hpp"

namespace wehey::transport {

class QuicSender final : public netsim::PacketSink {
 public:
  QuicSender(netsim::Simulator& sim, netsim::PacketIdSource& ids,
             netsim::FlowId flow, std::uint8_t dscp, netsim::PacketSink* out);

  void set_policer_key(netsim::FlowId key) { policer_key_ = key; }
  void supply(std::int64_t bytes);
  bool complete() const;
  void set_on_complete(std::function<void()> cb) {
    on_complete_ = std::move(cb);
  }

  // ACK input.
  void receive(netsim::Packet pkt) override;

  const netsim::ReplayMeasurement& measurement() const { return meas_; }
  Time srtt() const { return srtt_; }
  std::uint64_t packets_declared_lost() const { return lost_count_; }

 private:
  struct Sent {
    std::uint64_t offset = 0;  ///< stream offset carried
    std::uint32_t len = 0;
    Time sent_at = 0;
  };

  void maybe_send();
  void send_packet(std::uint64_t offset, std::uint32_t len);
  void detect_losses(Time now);
  void declare_lost(std::uint64_t pn, const Sent& info, Time now);
  void on_pto();
  void arm_pto();
  double pacing_rate() const;

  netsim::Simulator& sim_;
  netsim::PacketIdSource& ids_;
  netsim::FlowId flow_;
  netsim::FlowId policer_key_ = 0;
  std::uint8_t dscp_;
  netsim::PacketSink* out_;

  // Stream state.
  std::int64_t supplied_ = 0;
  std::uint64_t stream_next_ = 0;   ///< next fresh stream byte
  std::int64_t acked_stream_ = 0;   ///< stream bytes known delivered
  std::deque<std::pair<std::uint64_t, std::uint32_t>> retransmit_queue_;

  // Packet-number space.
  std::uint64_t next_pn_ = 0;
  std::uint64_t largest_acked_pn_ = 0;
  bool any_acked_ = false;
  std::map<std::uint64_t, Sent> unacked_;  // pn -> info
  std::int64_t bytes_in_flight_ = 0;

  // Congestion control (NewReno-style) + RTT.
  double cwnd_ = 0;
  double ssthresh_ = 0;
  Time srtt_ = 0;
  Time rttvar_ = 0;
  Time recovery_start_ = -1;  ///< loss events in one RTT count once

  // Pacing / PTO.
  Time pace_next_ = 0;
  netsim::Timer pace_timer_{sim_, [this] { maybe_send(); }};
  netsim::Timer pto_timer_{sim_, [this] { on_pto(); }};
  int pto_backoff_ = 0;

  netsim::ReplayMeasurement meas_;
  std::uint64_t lost_count_ = 0;
  std::function<void()> on_complete_;
  bool completed_notified_ = false;
};

class QuicReceiver final : public netsim::PacketSink {
 public:
  QuicReceiver(netsim::Simulator& sim, netsim::PacketIdSource& ids,
               netsim::FlowId flow, netsim::PacketSink* ack_out);

  void receive(netsim::Packet pkt) override;

  const std::vector<netsim::Delivery>& deliveries() const {
    return deliveries_;
  }
  const std::vector<double>& delay_samples_ms() const { return owd_ms_; }
  std::int64_t received_stream_bytes() const { return stream_received_; }

 private:
  void send_ack(Time now);

  netsim::Simulator& sim_;
  netsim::PacketIdSource& ids_;
  netsim::FlowId flow_;
  netsim::PacketSink* ack_out_;

  // Received packet numbers, as maximal ranges [first, last].
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges_;
  std::map<std::uint64_t, std::uint32_t> stream_segments_;  // offset -> len
  std::uint64_t stream_contiguous_ = 0;
  std::int64_t stream_received_ = 0;
  std::vector<netsim::Delivery> deliveries_;
  std::vector<double> owd_ms_;
  netsim::SackLog sack_log_;  ///< ACK ranges of this flow's ACKs in flight
};

}  // namespace wehey::transport
