#include "transport/tcp.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "netsim/queue.hpp"  // kNever
#include "common/log.hpp"

namespace wehey::transport {

using netsim::Packet;
using netsim::PacketKind;

// ---------------------------------------------------------------- TcpSender

TcpSender::TcpSender(netsim::Simulator& sim, netsim::PacketIdSource& ids,
                     TcpConfig cfg, netsim::FlowId flow, std::uint8_t dscp,
                     netsim::PacketSink* out)
    : sim_(sim), ids_(ids), cfg_(cfg), flow_(flow), dscp_(dscp), out_(out) {
  WEHEY_EXPECTS(out_ != nullptr);
  cwnd_ = cfg_.initial_cwnd_segments * mss_d();
  ssthresh_ = static_cast<double>(cfg_.max_cwnd_bytes);
  meas_.start = sim_.now();
}

void TcpSender::supply(std::int64_t bytes) {
  WEHEY_EXPECTS(bytes > 0);
  // Congestion-window validation after an application-limited idle period:
  // if the connection sat idle longer than one RTO, restart from the
  // initial window instead of blasting a stale window's worth of packets.
  if (available_ == 0 && inflight() == 0 && last_send_ > 0 &&
      sim_.now() - last_send_ > rto_) {
    cwnd_ = std::min(cwnd_, cfg_.initial_cwnd_segments * mss_d());
    epoch_start_ = -1;
  }
  supplied_ += bytes;
  available_ += bytes;
  completed_notified_ = false;
  maybe_send();
}

bool TcpSender::complete() const {
  return available_ == 0 && inflight() == 0 && supplied_ > 0;
}

double TcpSender::pacing_rate() const {
  if (cfg_.cc == CongestionControl::Bbr) {
    const double bw = lt_mode_ ? lt_bw_ : bbr_bw();
    if (bw > 0.0) {
      return std::max(bbr_pacing_gain() * bw, 8.0 * mss_d());
    }
    // No bandwidth estimate yet: pace the initial window over the RTT
    // guess at the startup gain.
    const double rate = cwnd_ * 8.0 /
                        to_seconds(cfg_.initial_rtt_guess) *
                        cfg_.bbr_startup_gain;
    return std::max(rate, 8.0 * mss_d());
  }
  const Time rtt = srtt_ > 0 ? srtt_ : cfg_.initial_rtt_guess;
  const double gain = cwnd_ < ssthresh_ ? cfg_.pacing_gain_slow_start
                                        : cfg_.pacing_gain_avoidance;
  const double rate = cwnd_ * 8.0 / to_seconds(rtt) * gain;
  return std::max(rate, 8.0 * mss_d());  // never slower than 1 seg/sec
}

void TcpSender::maybe_send() {
  // Hole repairs take priority over new data (RFC 6675 spirit); both
  // share the same congestion-window budget and the pacing gate.
  while (pipe() + static_cast<std::int64_t>(cfg_.mss) <=
         static_cast<std::int64_t>(cwnd_) + cfg_.mss - 1) {
    Segment* hole = nullptr;
    if (in_recovery_) {
      for (std::size_t i = first_segment_from(std::max(una_, hole_cursor_));
           i < outstanding_.size() && outstanding_[i].seq < recover_; ++i) {
        if (!outstanding_[i].sacked && !outstanding_[i].retx_in_recovery) {
          hole = &outstanding_[i];
          break;
        }
      }
      hole_cursor_ = hole != nullptr ? hole->seq : recover_;
    }
    if (hole == nullptr && available_ == 0) return;

    if (cfg_.pacing && sim_.now() < pace_next_) {
      if (!pace_timer_.armed()) pace_timer_.arm(pace_next_);
      return;
    }
    if (hole != nullptr) {
      hole->retransmitted = true;
      hole->retx_in_recovery = true;
      if (hole->lost) {
        // The retransmission puts the segment back in flight.
        hole->lost = false;
        lost_bytes_ -= hole->len;
      }
      transmit(*hole, /*is_retx=*/true);
      continue;
    }
    send_new_segment();
  }
}

std::size_t TcpSender::first_segment_from(std::uint64_t seq) const {
  std::size_t lo = 0;
  std::size_t hi = outstanding_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (outstanding_[mid].seq < seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void TcpSender::send_new_segment() {
  const auto len = static_cast<std::uint32_t>(
      std::min<std::int64_t>(available_, cfg_.mss));
  Segment seg;
  seg.seq = next_seq_;
  seg.len = len;
  seg.first_sent = sim_.now();
  seg.delivered_at_send = delivered_total_;
  outstanding_.push_back(seg);
  transmit(seg, /*is_retx=*/false);
  next_seq_ += len;
  available_ -= len;
  // Arm (not restart) the retransmission timer: restarting on every send
  // would let a steady stream of new data postpone the timeout forever.
  if (!rto_timer_.armed()) arm_rto();
}

void TcpSender::transmit(const Segment& seg, bool is_retx) {
  Packet pkt;
  pkt.id = ids_.next();
  pkt.flow = flow_;
  pkt.policer_key = policer_key_;
  pkt.kind = PacketKind::Data;
  pkt.size = seg.len + cfg_.header_bytes;
  pkt.dscp = dscp_;
  pkt.seq = seg.seq;
  pkt.payload = seg.len;
  pkt.retransmit = is_retx;
  pkt.sent_at = sim_.now();

  meas_.tx_times.push_back(sim_.now());
  if (is_retx) {
    // Retransmission-based loss estimation (§3.4): register one loss event
    // now — not when the drop actually happened.
    meas_.loss_times.push_back(sim_.now());
    ++retx_count_;
    retx_obs_.inc();
  }

  last_send_ = sim_.now();
  if (cfg_.pacing) {
    const Time gap = static_cast<Time>(
        static_cast<double>(pkt.size) * 8.0 / pacing_rate() *
        static_cast<double>(kSecond));
    pace_next_ = std::max(pace_next_, sim_.now()) + std::max<Time>(gap, 1);
  }
  out_->receive(std::move(pkt));
}

void TcpSender::retransmit_front(bool timeout) {
  if (outstanding_.empty()) return;
  auto& seg = outstanding_.front();
  WEHEY_ASSERT(seg.seq == una_);
  seg.retransmitted = true;  // Karn: no RTT sample from this segment
  seg.retx_in_recovery = true;
  if (seg.lost) {
    seg.lost = false;
    lost_bytes_ -= seg.len;
  }
  transmit(seg, /*is_retx=*/true);
  if (timeout) arm_rto();
}

void TcpSender::apply_sack(const Packet& ack_pkt) {
  if (ack_pkt.sack_log != nullptr) {
    ack_pkt.sack_log->consume(
        ack_pkt.sack_first, ack_pkt.sack_count,
        [this](const netsim::SackBlock& block) {
          if (block.empty()) return;
          if (block.end > highest_sacked_) highest_sacked_ = block.end;
          // Segments of an earlier block are sacked already; only the
          // parts of this one no earlier block covered can hold new ones.
          const std::uint64_t start = std::max(block.start, una_);
          const std::uint64_t end = std::min(block.end, next_seq_);
          if (start >= end) return;
          sacked_ranges_.insert(start, end,
                                [this](std::uint64_t from, std::uint64_t to) {
                                  mark_sacked(from, to);
                                });
        });
  }

  // RFC 6675 IsLost, simplified: an unsacked segment more than 3 MSS
  // below the highest SACKed byte is deemed lost and leaves the pipe.
  // Each segment is classified at most once (the floor is monotone).
  const std::uint64_t dup_thresh = 3ULL * cfg_.mss;
  if (highest_sacked_ > dup_thresh) {
    const std::uint64_t threshold = highest_sacked_ - dup_thresh;
    const std::uint64_t from = std::max(una_, loss_scan_floor_);
    // A segment at or above `from` ends above it: none qualifies unless
    // the threshold moved past `from`, which most ACKs do not make it do.
    if (threshold > from) {
      for (std::size_t i = first_segment_from(from);
           i < outstanding_.size() && outstanding_[i].end() <= threshold;
           ++i) {
        auto& seg = outstanding_[i];
        if (!seg.sacked && !seg.lost && !seg.retransmitted) {
          seg.lost = true;
          lost_bytes_ += seg.len;
        }
      }
    }
    loss_scan_floor_ = std::max(loss_scan_floor_, threshold);
  }
  // Note: the RTO timer deliberately does NOT restart on SACK progress —
  // only on cumulative-ACK progress (RFC 6298). If the una-hole repair
  // itself is lost, the timeout is the rescue path; postponing it on SACK
  // progress would starve a stuck recovery forever.
}

void TcpSender::mark_sacked(std::uint64_t from, std::uint64_t to) {
  for (std::size_t i = first_segment_from(from);
       i < outstanding_.size() && outstanding_[i].end() <= to; ++i) {
    auto& seg = outstanding_[i];
    seg.sacked = true;
    sacked_bytes_ += seg.len;
    if (seg.lost) {
      seg.lost = false;
      lost_bytes_ -= seg.len;
    }
  }
}

void TcpSender::receive(Packet pkt) {
  if (pkt.kind != PacketKind::Ack) return;
  const Time now = sim_.now();
  const std::uint64_t ack = pkt.ack;
  apply_sack(pkt);

  if (ack > una_) {
    on_new_ack(ack, now);
  } else if (ack == una_ && inflight() > 0) {
    ++dup_acks_;
    if (!in_recovery_ && dup_acks_ == 3) {
      enter_loss_recovery(/*timeout=*/false);
    }
  }
  maybe_send();
}

void TcpSender::on_new_ack(std::uint64_t ack, Time now) {
  const std::int64_t acked_bytes = static_cast<std::int64_t>(ack - una_);
  dup_acks_ = 0;

  // RTT sample from the newest cumulatively-acked, never-retransmitted
  // segment (Karn's algorithm). Segments sent before the most recent loss
  // event are also skipped: their cumulative ACK may have been held back
  // by hole repair, which would inflate the sample with recovery time
  // rather than path delay (a timestamp option would filter these the
  // same way).
  std::int64_t sample_delivered_at_send = -1;
  Time sample_sent_at = 0;
  while (!outstanding_.empty() && outstanding_.front().seq < ack) {
    const Segment& seg = outstanding_.front();
    if (!seg.retransmitted && seg.end() == ack &&
        seg.first_sent > last_loss_event_) {
      update_rtt(now - seg.first_sent);
      sample_delivered_at_send = seg.delivered_at_send;
      sample_sent_at = seg.first_sent;
    }
    if (seg.sacked) sacked_bytes_ -= seg.len;
    if (seg.lost) lost_bytes_ -= seg.len;
    outstanding_.pop_front();
  }
  una_ = ack;
  sacked_ranges_.erase_below(una_);
  delivered_total_ += acked_bytes;
  if (cfg_.cc == CongestionControl::Bbr) {
    bbr_on_ack(acked_bytes, now, sample_delivered_at_send, sample_sent_at);
  }
  if (loss_scan_floor_ < una_) loss_scan_floor_ = una_;

  if (in_recovery_) {
    if (ack > recover_) {
      // Full recovery: deflate to ssthresh and resume normal growth
      // (loss-based CC only; BBR's window is model-driven).
      in_recovery_ = false;
      if (!rto_recovery_ && cfg_.cc != CongestionControl::Bbr) {
        cwnd_ = ssthresh_;
      }
      rto_recovery_ = false;
    } else {
      // Partial ACK: more holes below the recovery point remain. After a
      // timeout the repair itself slow-starts (RFC 5681).
      if (rto_recovery_) {
        cwnd_ += static_cast<double>(
            std::min<std::int64_t>(acked_bytes, cfg_.mss));
      }
      maybe_send();
    }
  } else {
    slow_start_or_avoid(acked_bytes, now);
  }

  if (inflight() > 0) {
    arm_rto();
  } else {
    cancel_rto();
    outstanding_.release();  // idle: give the high-water buffer back
    if (complete() && !completed_notified_) {
      completed_notified_ = true;
      meas_.end = now;
      if (on_complete_) on_complete_();
    }
  }
}

void TcpSender::slow_start_or_avoid(std::int64_t acked_bytes, Time now) {
  if (cfg_.cc == CongestionControl::Bbr) return;  // cwnd set by the model
  if (cwnd_ < ssthresh_) {
    // Slow start: one MSS per MSS acked (byte counting, capped).
    cwnd_ += static_cast<double>(
        std::min<std::int64_t>(acked_bytes, cfg_.mss));
  } else if (cfg_.cc == CongestionControl::Cubic) {
    cubic_on_ack(now);
  } else {
    // NewReno congestion avoidance: ~one MSS per RTT.
    cwnd_ += mss_d() * mss_d() / cwnd_;
  }
  cwnd_ = std::min(cwnd_, static_cast<double>(cfg_.max_cwnd_bytes));
}

void TcpSender::cubic_on_ack(Time now) {
  const Time rtt = srtt_ > 0 ? srtt_ : cfg_.initial_rtt_guess;
  if (epoch_start_ < 0) {
    epoch_start_ = now;
    const double w = cwnd_segments();
    if (w_max_ < w) w_max_ = w;
    cubic_k_ = std::cbrt(w_max_ * (1.0 - cfg_.cubic_beta) / cfg_.cubic_c);
    w_est_ = w;
  }
  const double t = to_seconds(now - epoch_start_ + rtt);
  const double dt = t - cubic_k_;
  const double target = w_max_ + cfg_.cubic_c * dt * dt * dt;

  // TCP-friendly region (RFC 8312 §4.2).
  w_est_ += 3.0 * (1.0 - cfg_.cubic_beta) / (1.0 + cfg_.cubic_beta) *
            mss_d() / cwnd_ /* per-ACK AIMD-equivalent increment */;
  const double floor_w = std::max(w_est_, 2.0);

  const double w = cwnd_segments();
  double next_w;
  if (target > w) {
    next_w = w + (target - w) / w;  // per-ACK share of the cubic step
  } else {
    next_w = w + 0.01 / w;  // minimal growth in the plateau region
  }
  next_w = std::max(next_w, floor_w);
  cwnd_ = next_w * mss_d();
}

void TcpSender::enter_loss_recovery(bool timeout) {
  last_loss_event_ = sim_.now();
  hole_cursor_ = 0;  // a new episode: every branch moves recover_
  // CUBIC multiplicative decrease; remember W_max for the next epoch.
  w_max_ = cwnd_segments();
  epoch_start_ = -1;
  for (std::size_t i = 0; i < outstanding_.size(); ++i) {
    outstanding_[i].retx_in_recovery = false;
  }
  const double beta =
      cfg_.cc == CongestionControl::Cubic ? cfg_.cubic_beta : 0.5;
  if (cfg_.cc == CongestionControl::Bbr && !timeout) {
    // BBR does not back off multiplicatively on loss; it keeps sending at
    // the model rate while SACK repair runs.
    in_recovery_ = true;
    rto_recovery_ = false;
    recover_ = next_seq_;
    return;
  }
  ssthresh_ = std::max(cwnd_ * beta, 2.0 * mss_d());
  if (timeout) {
    // After an RTO every unSACKed outstanding segment is presumed lost:
    // rebuild the pipe and repair in slow start from one MSS.
    for (std::size_t i = 0; i < outstanding_.size(); ++i) {
      auto& seg = outstanding_[i];
      if (!seg.sacked && !seg.lost) {
        seg.lost = true;
        lost_bytes_ += seg.len;
      }
      seg.retransmitted = false;  // allow IsLost reclassification
    }
    in_recovery_ = true;
    rto_recovery_ = true;
    recover_ = next_seq_;
    cwnd_ = mss_d();
  } else {
    in_recovery_ = true;
    rto_recovery_ = false;
    recover_ = next_seq_;
    cwnd_ = ssthresh_;
  }
}

void TcpSender::update_rtt(Time sample) {
  if (sample <= 0) sample = 1;
  meas_.rtt_ms.push_back(to_milliseconds(sample));
  rtt_obs_.observe(to_milliseconds(sample));
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const Time err = std::abs(srtt_ - sample);
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  srtt_obs_.observe(to_milliseconds(srtt_));
  rto_ = std::clamp(srtt_ + 4 * rttvar_, cfg_.min_rto, cfg_.max_rto);
}

void TcpSender::on_rto() {
  if (inflight() == 0) return;
  ++timeout_count_;
  rto_obs_.inc();
  enter_loss_recovery(/*timeout=*/true);
  rto_ = std::min(rto_ * 2, cfg_.max_rto);  // exponential backoff
  retransmit_front(/*timeout=*/true);
  maybe_send();
}

// -------------------------------------------------------------------- BBR

double TcpSender::bbr_bw() const {
  double best = 0.0;
  for (const auto& [at, bw] : bw_samples_) best = std::max(best, bw);
  return best;
}

Time TcpSender::bbr_rtprop() const {
  Time best = netsim::kNever;
  for (const auto& [at, rtt] : rtprop_samples_) best = std::min(best, rtt);
  return best == netsim::kNever ? cfg_.initial_rtt_guess : best;
}

double TcpSender::bbr_pacing_gain() const {
  if (lt_mode_) return 1.0;  // pinned to the long-term (policed) rate
  switch (bbr_mode_) {
    case BbrMode::Startup: return cfg_.bbr_startup_gain;
    case BbrMode::Drain: return 1.0 / cfg_.bbr_startup_gain;
    case BbrMode::ProbeBw: {
      static constexpr double kCycle[] = {1.25, 0.75, 1, 1, 1, 1, 1, 1};
      return kCycle[bbr_cycle_index_ % 8];
    }
  }
  return 1.0;
}

void TcpSender::bbr_on_ack(std::int64_t acked_bytes, Time now,
                           std::int64_t delivered_at_send, Time sent_at) {
  (void)acked_bytes;
  // Delivery-rate sample from the freshly acked segment: bytes delivered
  // since it was sent, over the time it took.
  if (delivered_at_send >= 0 && now > sent_at) {
    const double rate = static_cast<double>(
                            delivered_total_ - delivered_at_send) *
                        8.0 / to_seconds(now - sent_at);
    bw_samples_.emplace_back(now, rate);
  }
  const Time bw_horizon = now - cfg_.bbr_bw_window;
  while (!bw_samples_.empty() && bw_samples_.front().first < bw_horizon) {
    bw_samples_.pop_front();
  }
  if (srtt_ > 0 && !meas_.rtt_ms.empty()) {
    rtprop_samples_.emplace_back(now,
                                 milliseconds(meas_.rtt_ms.back()));
  }
  const Time rt_horizon = now - cfg_.bbr_rtprop_window;
  while (!rtprop_samples_.empty() &&
         rtprop_samples_.front().first < rt_horizon) {
    rtprop_samples_.pop_front();
  }

  double bw = bbr_bw();
  const Time rtprop = bbr_rtprop();
  if (bw <= 0.0) return;

  // Long-term bandwidth sampling (policer detection). Epochs of ~4 rtprop;
  // two consecutive epochs with >20% retransmissions engage lt mode at the
  // epochs' delivered rate; after 48 rtprop the filter re-probes.
  const Time lt_epoch = 4 * rtprop;
  if (lt_epoch_start_ == 0) {
    lt_epoch_start_ = now;
    lt_epoch_delivered_ = delivered_total_;
    lt_epoch_tx_ = meas_.tx_times.size();
    lt_epoch_retx_ = retx_count_;
  } else if (now - lt_epoch_start_ >= lt_epoch) {
    const auto tx = meas_.tx_times.size() - lt_epoch_tx_;
    const auto retx = retx_count_ - lt_epoch_retx_;
    const double rate =
        static_cast<double>(delivered_total_ - lt_epoch_delivered_) * 8.0 /
        to_seconds(now - lt_epoch_start_);
    const double loss_ratio =
        tx > 0 ? static_cast<double>(retx) / static_cast<double>(tx) : 0.0;
    if (!lt_mode_) {
      if (loss_ratio > 0.2 && tx > 20) {
        if (++lt_high_loss_epochs_ >= 2) {
          lt_mode_ = true;
          lt_mode_entered_ = now;
          lt_bw_ = (rate + lt_prev_epoch_rate_) / 2.0;
        }
      } else {
        lt_high_loss_epochs_ = 0;
      }
      lt_prev_epoch_rate_ = rate;
    } else if (now - lt_mode_entered_ >= 48 * rtprop) {
      lt_mode_ = false;  // re-probe
      lt_high_loss_epochs_ = 0;
      bw_samples_.clear();
    }
    lt_epoch_start_ = now;
    lt_epoch_delivered_ = delivered_total_;
    lt_epoch_tx_ = meas_.tx_times.size();
    lt_epoch_retx_ = retx_count_;
  }
  if (lt_mode_ && lt_bw_ > 0.0) bw = lt_bw_;

  // Mode transitions.
  switch (bbr_mode_) {
    case BbrMode::Startup:
      if (bw > bbr_full_bw_ * 1.25) {
        bbr_full_bw_ = bw;
        bbr_full_bw_rounds_ = 0;
      } else if (++bbr_full_bw_rounds_ >= 3) {
        bbr_mode_ = BbrMode::Drain;  // pipe filled: drain the queue
      }
      break;
    case BbrMode::Drain:
      if (pipe() <= static_cast<std::int64_t>(bw / 8.0 *
                                              to_seconds(rtprop))) {
        bbr_mode_ = BbrMode::ProbeBw;
        bbr_cycle_index_ = 0;
        bbr_cycle_start_ = now;
      }
      break;
    case BbrMode::ProbeBw:
      if (now - bbr_cycle_start_ >= rtprop) {
        bbr_cycle_index_ = (bbr_cycle_index_ + 1) % 8;
        bbr_cycle_start_ = now;
      }
      break;
  }

  // cwnd: cap the pipe at cwnd_gain x BDP.
  const double bdp_bytes = bw / 8.0 * to_seconds(rtprop);
  cwnd_ = std::clamp(cfg_.bbr_cwnd_gain * bdp_bytes, 4.0 * mss_d(),
                     static_cast<double>(cfg_.max_cwnd_bytes));
}

// -------------------------------------------------------------- TcpReceiver

TcpReceiver::TcpReceiver(netsim::Simulator& sim, netsim::PacketIdSource& ids,
                         TcpConfig cfg, netsim::FlowId flow,
                         netsim::PacketSink* ack_out)
    : sim_(sim), ids_(ids), cfg_(cfg), flow_(flow), ack_out_(ack_out) {
  WEHEY_EXPECTS(ack_out_ != nullptr);
}

void TcpReceiver::receive(Packet pkt) {
  if (pkt.kind != PacketKind::Data) return;
  const Time now = sim_.now();
  deliveries_.push_back({now, pkt.payload});
  received_bytes_ += pkt.payload;
  owd_ms_.push_back(to_milliseconds(now - pkt.sent_at));

  const bool was_in_order = pkt.seq == rcv_next_;
  const std::uint64_t rcv_before = rcv_next_;
  if (pkt.seq == rcv_next_) {
    rcv_next_ += pkt.payload;
    // Drain any contiguous out-of-order data.
    while (!out_of_order_.empty() &&
           out_of_order_.front().start <= rcv_next_) {
      rcv_next_ = std::max(rcv_next_, out_of_order_.front().end);
      out_of_order_.erase_below(rcv_next_);
    }
  } else if (pkt.seq > rcv_next_) {
    out_of_order_.insert(pkt.seq, pkt.seq + pkt.payload);
  }
  // else: duplicate of already-delivered data; ACK re-states rcv_next_.

  if (on_deliver_ && rcv_next_ > rcv_before) {
    on_deliver_(static_cast<std::int64_t>(rcv_next_ - rcv_before));
  }

  const bool out_of_order = !out_of_order_.empty() || !was_in_order;
  if (!cfg_.delayed_acks || out_of_order) {
    // Immediate ACK: always for out-of-order data (dup-ACK/SACK latency
    // drives loss recovery), and for every segment when delayed ACKs are
    // off.
    send_ack(now);
    return;
  }
  if (++unacked_segments_ >= 2) {
    send_ack(now);
    return;
  }
  if (!delack_timer_.armed()) {
    delack_timer_.arm(now + cfg_.delayed_ack_timeout);
  }
}

void TcpReceiver::send_ack(Time now) {
  unacked_segments_ = 0;
  delack_timer_.cancel();
  Packet ack;
  ack.id = ids_.next();
  ack.flow = flow_;
  ack.kind = PacketKind::Ack;
  ack.size = cfg_.ack_bytes;
  ack.ack = rcv_next_;
  ack.sent_at = now;
  fill_sack_blocks(ack);
  ++acks_sent_;
  ack_out_->receive(std::move(ack));
}

void TcpReceiver::fill_sack_blocks(Packet& ack) {
  // Report up to kMaxSackBlocks out-of-order ranges, highest (most recent)
  // first — like the SACK option a real receiver builds. The blocks go to
  // the log; the ACK carries their index range.
  ack.sack_log = &sack_log_;
  ack.sack_first = sack_log_.next_index();
  int used = 0;
  for (auto it = out_of_order_.rbegin();
       it != out_of_order_.rend() && used < netsim::kMaxSackBlocks;
       ++it, ++used) {
    sack_log_.append(*it);
  }
  ack.sack_count = static_cast<std::uint8_t>(used);
}

}  // namespace wehey::transport
