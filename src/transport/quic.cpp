// Wire mapping of the netsim::Packet fields for QUIC packets:
//   Data packets: seq = packet number, ack = stream offset, payload = len.
//   ACK packets:  ack = largest acked packet number; the SACK blocks in the
//                 receiver's SackLog = acked packet-number ranges
//                 [start, end), highest first.
#include "transport/quic.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace wehey::transport {

using netsim::Packet;
using netsim::PacketKind;

// ---------------------------------------------------------------- sender

QuicSender::QuicSender(netsim::Simulator& sim, netsim::PacketIdSource& ids,
                       QuicConfig cfg, netsim::FlowId flow,
                       std::uint8_t dscp, netsim::PacketSink* out)
    : sim_(sim), ids_(ids), cfg_(cfg), flow_(flow), dscp_(dscp), out_(out) {
  WEHEY_EXPECTS(out_ != nullptr);
  cwnd_ = cfg_.initial_cwnd_packets * mss_d();
  ssthresh_ = static_cast<double>(cfg_.max_cwnd_bytes);
  meas_.start = sim_.now();
}

void QuicSender::supply(std::int64_t bytes) {
  WEHEY_EXPECTS(bytes > 0);
  supplied_ += bytes;
  completed_notified_ = false;
  maybe_send();
}

bool QuicSender::complete() const {
  return supplied_ > 0 && acked_stream_ >= supplied_;
}

double QuicSender::pacing_rate() const {
  const Time rtt = srtt_ > 0 ? srtt_ : cfg_.initial_rtt_guess;
  return std::max(cwnd_ * 8.0 / to_seconds(rtt) * cfg_.pacing_gain,
                  8.0 * mss_d());
}

void QuicSender::maybe_send() {
  while (bytes_in_flight_ + static_cast<std::int64_t>(cfg_.max_payload) <=
         static_cast<std::int64_t>(cwnd_) + cfg_.max_payload - 1) {
    const bool have_retx = !retransmit_queue_.empty();
    const std::int64_t fresh =
        supplied_ - static_cast<std::int64_t>(stream_next_);
    if (!have_retx && fresh <= 0) return;

    if (cfg_.pacing && sim_.now() < pace_next_) {
      if (!pace_timer_.armed()) pace_timer_.arm(pace_next_);
      return;
    }
    if (have_retx) {
      const auto [offset, len] = retransmit_queue_.front();
      retransmit_queue_.pop_front();
      send_packet(offset, len);
    } else {
      const auto len = static_cast<std::uint32_t>(
          std::min<std::int64_t>(fresh, cfg_.max_payload));
      send_packet(stream_next_, len);
      stream_next_ += len;
    }
  }
}

void QuicSender::send_packet(std::uint64_t offset, std::uint32_t len) {
  const std::uint64_t pn = next_pn_++;
  unacked_.emplace(pn, Sent{offset, len, sim_.now()});
  bytes_in_flight_ += len + cfg_.header_bytes;

  Packet pkt;
  pkt.id = ids_.next();
  pkt.flow = flow_;
  pkt.policer_key = policer_key_;
  pkt.kind = PacketKind::Data;
  pkt.size = len + cfg_.header_bytes;
  pkt.dscp = dscp_;
  pkt.seq = pn;
  pkt.ack = offset;
  pkt.payload = len;
  pkt.sent_at = sim_.now();

  meas_.tx_times.push_back(sim_.now());
  if (cfg_.pacing) {
    const Time gap = static_cast<Time>(static_cast<double>(pkt.size) * 8.0 /
                                       pacing_rate() *
                                       static_cast<double>(kSecond));
    pace_next_ = std::max(pace_next_, sim_.now()) + std::max<Time>(gap, 1);
  }
  out_->receive(std::move(pkt));
  if (!pto_timer_.armed()) arm_pto();
}

void QuicSender::receive(Packet pkt) {
  if (pkt.kind != PacketKind::Ack) return;
  const Time now = sim_.now();

  std::int64_t newly_acked_bytes = 0;
  Time largest_sent_at = -1;
  if (pkt.sack_log != nullptr) {
    pkt.sack_log->consume(
        pkt.sack_first, pkt.sack_count,
        [&](const netsim::SackBlock& block) {
          if (block.empty()) return;
          for (auto it = unacked_.lower_bound(block.start);
               it != unacked_.end() && it->first < block.end;) {
            newly_acked_bytes += it->second.len;
            bytes_in_flight_ -= it->second.len + cfg_.header_bytes;
            acked_stream_ += it->second.len;
            if (it->first >= largest_acked_pn_) {
              largest_acked_pn_ = it->first;
              any_acked_ = true;
              largest_sent_at = it->second.sent_at;
            }
            it = unacked_.erase(it);
          }
        });
  }

  if (largest_sent_at >= 0) {
    Time sample = now - largest_sent_at;
    if (sample <= 0) sample = 1;
    meas_.rtt_ms.push_back(to_milliseconds(sample));
    if (srtt_ == 0) {
      srtt_ = sample;
      rttvar_ = sample / 2;
    } else {
      const Time err = std::abs(srtt_ - sample);
      rttvar_ = (3 * rttvar_ + err) / 4;
      srtt_ = (7 * srtt_ + sample) / 8;
    }
    pto_backoff_ = 0;
  }

  if (newly_acked_bytes > 0) {
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(newly_acked_bytes);  // slow start
    } else {
      cwnd_ += mss_d() * static_cast<double>(newly_acked_bytes) / cwnd_;
    }
    cwnd_ = std::min(cwnd_, static_cast<double>(cfg_.max_cwnd_bytes));
    if (unacked_.empty() && retransmit_queue_.empty()) {
      pto_timer_.cancel();
    } else {
      arm_pto();
    }
  }

  detect_losses(now);
  maybe_send();

  if (complete() && !completed_notified_) {
    completed_notified_ = true;
    meas_.end = now;
    if (on_complete_) on_complete_();
  }
}

void QuicSender::detect_losses(Time now) {
  if (!any_acked_) return;
  const Time rtt = srtt_ > 0 ? srtt_ : cfg_.initial_rtt_guess;
  const Time time_limit =
      static_cast<Time>(cfg_.time_threshold * static_cast<double>(rtt));
  std::vector<std::uint64_t> lost;
  for (const auto& [pn, info] : unacked_) {
    if (pn >= largest_acked_pn_) break;  // map is ordered
    const bool by_packets =
        largest_acked_pn_ >= pn + static_cast<std::uint64_t>(
                                      cfg_.packet_threshold);
    const bool by_time = now - info.sent_at >= time_limit;
    if (by_packets || by_time) lost.push_back(pn);
  }
  for (std::uint64_t pn : lost) {
    const auto it = unacked_.find(pn);
    declare_lost(pn, it->second, now);
    unacked_.erase(it);
  }
}

void QuicSender::declare_lost(std::uint64_t pn, const Sent& info,
                              Time now) {
  bytes_in_flight_ -= info.len + cfg_.header_bytes;
  retransmit_queue_.emplace_back(info.offset, info.len);
  // The loss event is registered when declared — close to the true drop
  // time (one packet-threshold's worth of arrivals later), with no
  // over-counting: QUIC's measurement advantage over TCP retransmissions.
  meas_.loss_times.push_back(now);
  ++lost_count_;
  // One congestion response per recovery epoch (RFC 9002 §7.3).
  if (info.sent_at > recovery_start_) {
    recovery_start_ = now;
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * mss_d());
    cwnd_ = ssthresh_;
  }
  (void)pn;
}

void QuicSender::arm_pto() {
  const Time rtt = srtt_ > 0 ? srtt_ : cfg_.initial_rtt_guess;
  const Time pto = std::max(cfg_.min_pto, rtt + 4 * rttvar_)
                   << std::min(pto_backoff_, 6);
  pto_timer_.arm(sim_.now() + pto);
}

void QuicSender::on_pto() {
  if (unacked_.empty() && retransmit_queue_.empty()) return;
  ++pto_count_;
  ++pto_backoff_;
  // Probe: re-send the oldest unacked data under a fresh packet number.
  if (!unacked_.empty()) {
    const auto it = unacked_.begin();
    declare_lost(it->first, it->second, sim_.now());
    unacked_.erase(it);
  }
  arm_pto();
  maybe_send();
}

// -------------------------------------------------------------- receiver

QuicReceiver::QuicReceiver(netsim::Simulator& sim,
                           netsim::PacketIdSource& ids, QuicConfig cfg,
                           netsim::FlowId flow, netsim::PacketSink* ack_out)
    : sim_(sim), ids_(ids), cfg_(cfg), flow_(flow), ack_out_(ack_out) {
  WEHEY_EXPECTS(ack_out_ != nullptr);
}

void QuicReceiver::receive(Packet pkt) {
  if (pkt.kind != PacketKind::Data) return;
  const Time now = sim_.now();
  deliveries_.push_back({now, pkt.payload});
  owd_ms_.push_back(to_milliseconds(now - pkt.sent_at));

  // Merge the packet number into the range set.
  const std::uint64_t pn = pkt.seq;
  bool merged = false;
  for (auto& [first, last] : ranges_) {
    if (pn + 1 == first) {
      first = pn;
      merged = true;
      break;
    }
    if (pn == last + 1) {
      last = pn;
      merged = true;
      break;
    }
    if (pn >= first && pn <= last) {
      merged = true;  // duplicate
      break;
    }
  }
  if (!merged) ranges_.emplace_back(pn, pn);
  // Coalesce adjacent ranges (kept sorted by first).
  std::sort(ranges_.begin(), ranges_.end());
  for (std::size_t i = 1; i < ranges_.size();) {
    if (ranges_[i].first <= ranges_[i - 1].second + 1) {
      ranges_[i - 1].second = std::max(ranges_[i - 1].second,
                                       ranges_[i].second);
      ranges_.erase(ranges_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }

  // Stream reassembly (deduplicated by offset).
  const std::uint64_t offset = pkt.ack;
  if (stream_segments_.emplace(offset, pkt.payload).second) {
    stream_received_ += pkt.payload;
  }
  auto it = stream_segments_.find(stream_contiguous_);
  while (it != stream_segments_.end()) {
    stream_contiguous_ += it->second;
    it = stream_segments_.find(stream_contiguous_);
  }

  send_ack(now);
}

void QuicReceiver::send_ack(Time now) {
  Packet ack;
  ack.id = ids_.next();
  ack.flow = flow_;
  ack.kind = PacketKind::Ack;
  ack.size = cfg_.ack_bytes;
  ack.sent_at = now;
  // Highest ranges first, as QUIC ACK frames are encoded.
  ack.ack = ranges_.empty() ? 0 : ranges_.back().second;
  ack.sack_log = &sack_log_;
  ack.sack_first = sack_log_.next_index();
  int used = 0;
  for (auto it = ranges_.rbegin();
       it != ranges_.rend() && used < netsim::kMaxSackBlocks; ++it) {
    sack_log_.append({it->first, it->second + 1});  // [start, end)
    ++used;
  }
  ack.sack_count = static_cast<std::uint8_t>(used);
  ack_out_->receive(std::move(ack));
}

}  // namespace wehey::transport
