#include "netsim/queue.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace wehey::netsim {

// ---------------------------------------------------------------- FifoDisc

bool FifoDisc::enqueue(Packet pkt, Time now) {
  if (!admit(pkt, now)) return false;
  q_.push_back(std::move(pkt));
  return true;
}

std::optional<Packet> FifoDisc::dequeue(Time now) {
  if (q_.empty()) return std::nullopt;
  Packet pkt = std::move(q_.front());
  q_.pop_front();
  release(pkt, now);
  return pkt;
}

bool FifoDisc::admit(Packet& pkt, Time now) {
  if (limit_ > 0 && bytes_ + pkt.size > limit_) {
    drop_obs_.inc();
    notify_drop(pkt, now);
    return false;
  }
  bytes_ += pkt.size;
  ++packets_;
  pkt.enqueued_at = now;
  return true;
}

void FifoDisc::release(const Packet& pkt, Time at) {
  bytes_ -= pkt.size;
  --packets_;
  residency_obs_.observe(to_milliseconds(at - pkt.enqueued_at));
}

Time FifoDisc::next_ready(Time now) const {
  return q_.empty() ? kNever : now;
}

// ----------------------------------------------------------------- TbfDisc

TbfDisc::TbfDisc(Rate rate, std::int64_t burst_bytes,
                 std::int64_t limit_bytes)
    : rate_(rate),
      burst_(burst_bytes),
      limit_(limit_bytes),
      tokens_bytes_(static_cast<double>(burst_bytes)) {
  WEHEY_EXPECTS(rate > 0.0);
  WEHEY_EXPECTS(burst_bytes > 0);
  WEHEY_EXPECTS(limit_bytes >= 0);
}

void TbfDisc::refill(Time now) {
  if (now <= last_refill_) return;
  const double added = rate_ / 8.0 * to_seconds(now - last_refill_);
  tokens_bytes_ =
      std::min(static_cast<double>(burst_), tokens_bytes_ + added);
  last_refill_ = now;
}

double TbfDisc::tokens(Time now) const {
  const double added = rate_ / 8.0 * to_seconds(std::max<Time>(0, now - last_refill_));
  return std::min(static_cast<double>(burst_), tokens_bytes_ + added);
}

bool TbfDisc::enqueue(Packet pkt, Time now) {
  refill(now);
  if (bytes_ + pkt.size > limit_ + 0) {
    // Queue full while waiting for tokens: the packet is policed away.
    drop_obs_.inc();
    notify_drop(pkt, now);
    return false;
  }
  bytes_ += pkt.size;
  pkt.enqueued_at = now;
  q_.push_back(std::move(pkt));
  return true;
}

std::optional<Packet> TbfDisc::dequeue(Time now) {
  refill(now);
  if (q_.empty()) return std::nullopt;
  if (static_cast<double>(q_.front().size) > tokens_bytes_) return std::nullopt;
  Packet pkt = std::move(q_.front());
  q_.pop_front();
  bytes_ -= pkt.size;
  tokens_bytes_ -= static_cast<double>(pkt.size);
  residency_obs_.observe(to_milliseconds(now - pkt.enqueued_at));
  return pkt;
}

Time TbfDisc::next_ready(Time now) const {
  if (q_.empty()) return kNever;
  const double available = tokens(now);
  const double needed = static_cast<double>(q_.front().size);
  if (needed <= available) return now;
  const double wait_s = (needed - available) * 8.0 / rate_;
  return now + std::max<Time>(1, seconds(wait_s));
}

double TbfDisc::fluid_offer(double bytes, std::uint8_t dscp, Time now) {
  (void)dscp;  // a bare TBF polices everything that reaches it
  if (bytes <= 0.0) return 0.0;
  refill(now);
  const double take = std::min(tokens_bytes_, bytes);
  tokens_bytes_ -= take;
  return take;
}

// --------------------------------------------------------- RateLimiterDisc

RateLimiterDisc::RateLimiterDisc(std::unique_ptr<FifoDisc> default_q,
                                 std::unique_ptr<QueueDisc> throttled_q)
    : default_(std::move(default_q)), throttled_(std::move(throttled_q)) {
  WEHEY_EXPECTS(default_ != nullptr);
  WEHEY_EXPECTS(throttled_ != nullptr);
  default_->set_drop_listener(forward_drops());
  throttled_->set_drop_listener(forward_drops());
}

bool RateLimiterDisc::enqueue(Packet pkt, Time now) {
  return pkt.dscp == kDscpDifferentiated
             ? throttled_->enqueue(std::move(pkt), now)
             : default_->enqueue(std::move(pkt), now);
}

std::optional<Packet> RateLimiterDisc::dequeue(Time now) {
  QueueDisc* first = serve_throttled_first_
                         ? static_cast<QueueDisc*>(throttled_.get())
                         : static_cast<QueueDisc*>(default_.get());
  QueueDisc* second = serve_throttled_first_
                          ? static_cast<QueueDisc*>(default_.get())
                          : static_cast<QueueDisc*>(throttled_.get());
  // Alternate the starting class on every successful dequeue: round-robin
  // forwarding between the FIFO and TBF queues (Appendix C.1).
  if (auto pkt = first->dequeue(now)) {
    serve_throttled_first_ = !serve_throttled_first_;
    return pkt;
  }
  if (auto pkt = second->dequeue(now)) {
    serve_throttled_first_ = !serve_throttled_first_;
    return pkt;
  }
  return std::nullopt;
}

Time RateLimiterDisc::next_ready(Time now) const {
  return std::min(default_->next_ready(now), throttled_->next_ready(now));
}

double RateLimiterDisc::fluid_offer(double bytes, std::uint8_t dscp,
                                    Time now) {
  return dscp == kDscpDifferentiated
             ? throttled_->fluid_offer(bytes, dscp, now)
             : default_->fluid_offer(bytes, dscp, now);
}

void RateLimiterDisc::fluid_set_backlog(std::int64_t bytes) {
  // The classifier itself holds no queue; propagate the occupancy to both
  // classes (only occupancy-driven children use it).
  default_->fluid_set_backlog(bytes);
  throttled_->fluid_set_backlog(bytes);
}

std::int64_t RateLimiterDisc::backlog_bytes() const {
  return default_->backlog_bytes() + throttled_->backlog_bytes();
}

std::size_t RateLimiterDisc::backlog_packets() const {
  return default_->backlog_packets() + throttled_->backlog_packets();
}

// ----------------------------------------------------------------- RedDisc

RedDisc::RedDisc(std::int64_t min_th_bytes, std::int64_t max_th_bytes,
                 double max_p, std::uint64_t seed, double ewma_weight)
    : min_th_(min_th_bytes),
      max_th_(max_th_bytes),
      max_p_(max_p),
      weight_(ewma_weight),
      rng_(seed) {
  WEHEY_EXPECTS(min_th_bytes >= 0);
  WEHEY_EXPECTS(max_th_bytes > min_th_bytes);
  WEHEY_EXPECTS(max_p > 0.0 && max_p <= 1.0);
  WEHEY_EXPECTS(ewma_weight > 0.0 && ewma_weight <= 1.0);
}

double RedDisc::drop_probability() const {
  if (avg_ >= static_cast<double>(max_th_)) return 1.0;
  if (avg_ <= static_cast<double>(min_th_)) return 0.0;
  return max_p_ * (avg_ - static_cast<double>(min_th_)) /
         static_cast<double>(max_th_ - min_th_);
}

bool RedDisc::enqueue(Packet pkt, Time now) {
  // The fluid aggregate's standing queue counts toward the averaged
  // occupancy (zero unless a FluidSource is attached, so packet-only runs
  // are bit-identical to the pre-fluid behaviour).
  avg_ = (1.0 - weight_) * avg_ +
         weight_ * static_cast<double>(bytes_ + fluid_backlog_);
  bool early = false;
  if (avg_ >= static_cast<double>(max_th_)) {
    early = true;
  } else if (avg_ > static_cast<double>(min_th_)) {
    early = rng_.bernoulli(drop_probability());
  }
  // Hard cap at 2x max_th as the physical queue limit.
  const bool cap = bytes_ + pkt.size > 2 * max_th_;
  if (early || cap) {
    if (early) {
      early_drop_obs_.inc();
    } else {
      cap_drop_obs_.inc();
    }
    notify_drop(pkt, now);
    return false;
  }
  bytes_ += pkt.size;
  pkt.enqueued_at = now;
  q_.push_back(std::move(pkt));
  return true;
}

std::optional<Packet> RedDisc::dequeue(Time now) {
  if (q_.empty()) return std::nullopt;
  Packet pkt = std::move(q_.front());
  q_.pop_front();
  bytes_ -= pkt.size;
  residency_obs_.observe(to_milliseconds(now - pkt.enqueued_at));
  return pkt;
}

Time RedDisc::next_ready(Time now) const {
  return q_.empty() ? kNever : now;
}

double RedDisc::fluid_offer(double bytes, std::uint8_t dscp, Time now) {
  (void)dscp;
  (void)now;
  if (bytes <= 0.0) return 0.0;
  // Same EWMA update an arrival performs, then the early-drop probability
  // applied in expectation: deterministic fractional loss, no RNG draws,
  // so fluid runs stay byte-identical across thread counts.
  avg_ = (1.0 - weight_) * avg_ +
         weight_ * static_cast<double>(bytes_ + fluid_backlog_);
  return bytes * (1.0 - drop_probability());
}

// --------------------------------------------------- PerFlowRateLimiterDisc

PerFlowRateLimiterDisc::PerFlowRateLimiterDisc(
    std::unique_ptr<FifoDisc> default_q, Rate rate, std::int64_t burst_bytes,
    std::int64_t limit_bytes)
    : default_(std::move(default_q)),
      rate_(rate),
      burst_(burst_bytes),
      limit_(limit_bytes) {
  WEHEY_EXPECTS(default_ != nullptr);
  WEHEY_EXPECTS(rate > 0 && burst_bytes > 0 && limit_bytes >= 0);
  default_->set_drop_listener(forward_drops());
}

bool PerFlowRateLimiterDisc::enqueue(Packet pkt, Time now) {
  if (pkt.dscp != kDscpDifferentiated) {
    return default_->enqueue(std::move(pkt), now);
  }
  const FlowId key = key_of(pkt);
  for (auto& [flow, tbf] : buckets_) {
    if (flow == key) return tbf->enqueue(std::move(pkt), now);
  }
  buckets_.emplace_back(key,
                        std::make_unique<TbfDisc>(rate_, burst_, limit_));
  TbfDisc& tbf = *buckets_.back().second;
  tbf.set_drop_listener(forward_drops());
  return tbf.enqueue(std::move(pkt), now);
}

std::optional<Packet> PerFlowRateLimiterDisc::dequeue(Time now) {
  // Round-robin across {default class, bucket 0, bucket 1, ...}.
  const std::size_t classes = 1 + buckets_.size();
  for (std::size_t step = 0; step < classes; ++step) {
    const std::size_t idx = (rr_next_ + step) % classes;
    QueueDisc* disc = idx == 0
                          ? static_cast<QueueDisc*>(default_.get())
                          : static_cast<QueueDisc*>(
                                buckets_[idx - 1].second.get());
    if (auto pkt = disc->dequeue(now)) {
      rr_next_ = (idx + 1) % classes;
      return pkt;
    }
  }
  return std::nullopt;
}

Time PerFlowRateLimiterDisc::next_ready(Time now) const {
  Time ready = default_->next_ready(now);
  for (const auto& [flow, tbf] : buckets_) {
    ready = std::min(ready, tbf->next_ready(now));
  }
  return ready;
}

std::int64_t PerFlowRateLimiterDisc::backlog_bytes() const {
  std::int64_t sum = default_->backlog_bytes();
  for (const auto& [flow, tbf] : buckets_) sum += tbf->backlog_bytes();
  return sum;
}

std::size_t PerFlowRateLimiterDisc::backlog_packets() const {
  std::size_t sum = default_->backlog_packets();
  for (const auto& [flow, tbf] : buckets_) sum += tbf->backlog_packets();
  return sum;
}

std::uint64_t PerFlowRateLimiterDisc::throttled_drops() const {
  std::uint64_t drops = 0;
  for (const auto& [flow, tbf] : buckets_) drops += tbf->drop_count();
  return drops;
}

}  // namespace wehey::netsim
