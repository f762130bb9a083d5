#include "transport/udp.hpp"

#include "common/check.hpp"

namespace wehey::transport {

using netsim::Packet;
using netsim::PacketKind;

UdpReplaySender::UdpReplaySender(netsim::Simulator& sim,
                                 netsim::PacketIdSource& ids, UdpConfig cfg,
                                 netsim::FlowId flow, std::uint8_t dscp,
                                 netsim::PacketSink* out,
                                 const trace::AppTrace& t, Time start,
                                 netsim::FlowId policer_key)
    : sim_(sim),
      out_(out),
      flow_(flow),
      policer_key_(policer_key),
      header_bytes_(cfg.header_bytes),
      dscp_(dscp),
      start_(start),
      end_(start) {
  WEHEY_EXPECTS(out != nullptr);
  tx_times_.reserve(t.packets.size());
  payloads_.reserve(t.packets.size());
  for (const auto& tp : t.packets) {
    tx_times_.push_back(start + tp.offset);
    payloads_.push_back(tp.size);
  }
  if (!tx_times_.empty()) end_ = tx_times_.back();
  // Packet ids are drawn now, when the schedule is laid out: packet i
  // carries first_id_ + i.
  first_id_ = ids.reserve(tx_times_.size());
  sim.schedule_series(tx_times_, [this](std::size_t i) { send(i); });
}

void UdpReplaySender::send(std::size_t i) {
  Packet pkt;
  pkt.id = first_id_ + i;
  pkt.flow = flow_;
  pkt.policer_key = policer_key_;
  pkt.kind = PacketKind::Data;
  pkt.size = payloads_[i] + header_bytes_;
  pkt.dscp = dscp_;
  pkt.seq = i;
  pkt.payload = payloads_[i];
  pkt.sent_at = sim_.now();
  out_->receive(std::move(pkt));
}

void UdpReplayReceiver::receive(Packet pkt) {
  if (pkt.kind != PacketKind::Data) return;
  const Time now = sim_.now();
  deliveries_.push_back({now, pkt.payload});
  owd_ms_.push_back(to_milliseconds(now - pkt.sent_at));

  if (pkt.seq >= expected_seq_) {
    // Every skipped sequence number is a loss, registered at the moment
    // the gap becomes observable (the arrival of this later packet).
    for (std::uint64_t missing = expected_seq_; missing < pkt.seq;
         ++missing) {
      loss_times_.push_back(now);
    }
    expected_seq_ = pkt.seq + 1;
  }
  // pkt.seq < expected_seq_ would be reordering; the simulator's FIFO
  // paths never reorder, so such packets are simply counted as deliveries.
}

void UdpReplayReceiver::finalize(std::uint64_t packets_sent, Time at) {
  while (expected_seq_ < packets_sent) {
    loss_times_.push_back(at);
    ++expected_seq_;
  }
}

netsim::ReplayMeasurement udp_measurement(const UdpReplaySender& sender,
                                          const UdpReplayReceiver& receiver) {
  netsim::ReplayMeasurement m;
  m.start = sender.start();
  m.end = sender.end();
  m.tx_times = sender.tx_times();
  m.loss_times = receiver.loss_times();
  m.deliveries = receiver.deliveries();
  m.rtt_ms = receiver.delay_samples_ms();
  return m;
}

}  // namespace wehey::transport
