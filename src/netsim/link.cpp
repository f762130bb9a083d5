#include "netsim/link.hpp"

#include "common/log.hpp"

namespace wehey::netsim {

Link::Link(Simulator& sim, Rate bandwidth, Time delay,
           std::unique_ptr<QueueDisc> disc, PacketSink* next)
    : sim_(sim),
      bandwidth_(bandwidth),
      delay_(delay),
      disc_(std::move(disc)),
      next_(next) {
  WEHEY_EXPECTS(bandwidth_ > 0.0);
  WEHEY_EXPECTS(delay_ >= 0);
  WEHEY_EXPECTS(disc_ != nullptr);
  timed_ = dynamic_cast<FifoDisc*>(disc_.get());
}

void Link::receive(Packet pkt) {
  if (timed_ != nullptr) {
    receive_timed(std::move(pkt));
    return;
  }
  disc_->enqueue(std::move(pkt), sim_.now());
  try_transmit();
}

void Link::set_bandwidth(Rate bandwidth) {
  WEHEY_EXPECTS(bandwidth > 0.0);
  bandwidth_ = bandwidth;
  if (timed_ == nullptr) return;
  // Transmissions that have begun keep their rate; the packets behind
  // them move to the new one, still back to back. The front packet has
  // always begun: it was accepted into an idle link or began when the
  // packet before it ended, before that one arrived.
  settle();
  WEHEY_ASSERT(begun_ > 0 || sent_.empty());
  for (std::size_t i = begun_; i < sent_.size(); ++i) {
    Timed& t = sent_[i];
    t.start = sent_[i - 1].end;
    t.end = t.start + transmission_time(t.pkt.size, bandwidth_);
    busy_until_ = t.end;
  }
}

void Link::receive_timed(Packet pkt) {
  settle();
  const Time now = sim_.now();
  if (!timed_->admit(pkt, now)) return;
  Timed t;
  t.start = std::max(now, busy_until_);
  t.end = t.start + transmission_time(pkt.size, bandwidth_);
  t.seq = sim_.reserve_seq(1);
  t.pkt = std::move(pkt);
  busy_until_ = t.end;
  if (!arrival_pending_) {
    arrival_pending_ = true;
    sim_.schedule_keyed(t.end + delay_, t.seq, [this] { arrive(); });
  }
  sent_.push_back(std::move(t));
}

void Link::arrive() {
  settle();
  Packet pkt = std::move(sent_.front().pkt);
  sent_.pop_front();
  --begun_;
  --ended_;
  // The next hop may send into this link again before this returns.
  if (next_ != nullptr) next_->receive(std::move(pkt));
  if (sent_.empty()) {
    arrival_pending_ = false;
    return;
  }
  const Timed& front = sent_.front();
  sim_.reschedule_current_keyed(front.end + delay_, front.seq);
}

void Link::settle() const {
  if (sent_.empty()) return;
  const Time now = sim_.now();
  while (begun_ < sent_.size() && sent_[begun_].start <= now) {
    const Timed& t = sent_[begun_++];
    timed_->release(t.pkt, t.start);
  }
  // Each count is taken before the listener runs, which may read the link.
  while (ended_ < begun_ && sent_[ended_].end <= now) {
    const Timed& t = sent_[ended_++];
    ++delivered_;
    delivered_bytes_ += t.pkt.size;
    account_transmit(t.end - t.start, t.end);
    if (on_tx_) on_tx_(t.pkt, t.end);
  }
}

void Link::inject_fluid_burst(double bytes) {
  WEHEY_EXPECTS(timed_ == nullptr);
  if (bytes <= 0.0) return;
  fluid_burst_bytes_ += bytes;
  try_transmit();
}

void Link::try_transmit() {
  if (transmitting_) return;
  if (fluid_burst_bytes_ > 0.0) {
    // Drain the pending fluid burst as one busy period before serving
    // packets — head-of-flow bursts arrive ahead of anything queued after
    // the injection point.
    const auto bytes = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(fluid_burst_bytes_ + 0.5));
    fluid_burst_bytes_ = 0.0;
    transmitting_ = true;
    const Time tx = transmission_time(bytes, effective_bandwidth());
    sim_.schedule(tx, [this, tx] {
      transmitting_ = false;
      account_transmit(tx, sim_.now());
      try_transmit();
    });
    return;
  }
  auto pkt = disc_->dequeue(sim_.now());
  if (!pkt) {
    // Nothing eligible now. If the disc will have an eligible packet later
    // (token-bucket refill), arm a single wake-up for that time.
    const Time ready = disc_->next_ready(sim_.now());
    if (ready != kNever && ready < wakeup_at_) {
      wakeup_at_ = ready;
      sim_.schedule_at(ready, [this, ready] {
        if (wakeup_at_ == ready) wakeup_at_ = kNever;
        try_transmit();
      });
    }
    return;
  }
  transmitting_ = true;
  const Time tx = transmission_time(pkt->size, effective_bandwidth());
  auto transmit = [this, p = std::move(*pkt), tx]() mutable {
    finish_transmit(std::move(p), tx);
  };
  // Packet events dominate the event heap: a Packet field that pushed this
  // closure past the inline buffer would put every one on the allocator.
  static_assert(InplaceAction::fits_inline<decltype(transmit)>(),
                "Link transmit closure must fit InplaceAction inline");
  sim_.schedule(tx, std::move(transmit));
}

void Link::account_transmit(Time tx_time, Time now) const {
  busy_time_ += tx_time;
  if (obs::Recorder::current() == nullptr) return;
  // Close every fully elapsed window (idle windows sample 0); a
  // transmission counts toward the window it completes in.
  while (now - util_window_start_ >= kLinkUtilizationWindow) {
    util_obs_.observe(std::min(
        1.0, static_cast<double>(util_window_busy_) /
                 static_cast<double>(kLinkUtilizationWindow)));
    util_window_start_ += kLinkUtilizationWindow;
    util_window_busy_ = 0;
  }
  util_window_busy_ += tx_time;
}

void Link::finish_transmit(Packet pkt, Time tx_time) {
  transmitting_ = false;
  ++delivered_;
  delivered_bytes_ += pkt.size;
  account_transmit(tx_time, sim_.now());
  if (on_tx_) on_tx_(pkt, sim_.now());
  if (next_ != nullptr) {
    if (delay_ > 0) {
      auto propagate = [this, p = std::move(pkt)]() mutable {
        next_->receive(std::move(p));
      };
      static_assert(InplaceAction::fits_inline<decltype(propagate)>(),
                    "Link propagation closure must fit InplaceAction inline");
      sim_.schedule(delay_, std::move(propagate));
    } else {
      next_->receive(std::move(pkt));
    }
  }
  try_transmit();
}

void Pipe::receive(Packet pkt) {
  if (next_ == nullptr) return;
  sim_.schedule(delay_, [this, p = std::move(pkt)]() mutable {
    next_->receive(std::move(p));
  });
}

void Demux::receive(Packet pkt) {
  const auto it = routes_.find(pkt.flow);
  if (it != routes_.end()) {
    it->second->receive(std::move(pkt));
    return;
  }
  ++unrouted_;
  LOG_TRACE("demux: dropping packet for unknown flow " << pkt.flow);
}

}  // namespace wehey::netsim
