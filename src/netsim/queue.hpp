// Queueing disciplines.
//
//  * FifoDisc — drop-tail FIFO with a byte limit (ns-3's default pfifo).
//  * TbfDisc — token-bucket filter: `rate` replenishes the bucket, `burst`
//    is the bucket size, `limit` is the backlog allowed while waiting for
//    tokens. A small limit makes it a *policer* (drops), a large one a
//    *shaper* (delays) — exactly the §2.1 taxonomy.
//  * RateLimiterDisc — the full differentiation box of Appendix C.1: a
//    DSCP classifier feeding a FIFO (dscp=0) and a TBF (dscp=1), drained
//    round-robin by the owning link.
//
// Discs are passive: the owning Link drives dequeue() and uses
// next_ready() to sleep until a token-gated packet becomes eligible.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "netsim/packet.hpp"
#include "obs/hotpath.hpp"

namespace wehey::netsim {

/// Sentinel for "no packet will become ready without a new enqueue".
inline constexpr Time kNever = std::numeric_limits<Time>::max();

/// Called with every packet a disc drops (for loss accounting in tests and
/// experiment harnesses).
using DropListener = std::function<void(const Packet&, Time)>;

class QueueDisc {
 public:
  virtual ~QueueDisc() = default;

  /// Accept or drop `pkt` at time `now`; false means dropped.
  virtual bool enqueue(Packet pkt, Time now) = 0;
  /// Remove and return a packet eligible for transmission at `now`.
  virtual std::optional<Packet> dequeue(Time now) = 0;
  /// Earliest time >= now at which dequeue() could succeed, kNever if the
  /// disc is empty.
  virtual Time next_ready(Time now) const = 0;

  virtual std::int64_t backlog_bytes() const = 0;
  virtual std::size_t backlog_packets() const = 0;

  void set_drop_listener(DropListener listener) {
    on_drop_ = std::move(listener);
  }
  /// Every packet this disc dropped, those of its child discs included.
  std::uint64_t drop_count() const { return drops_; }

  // Hybrid fluid/packet coupling (netsim/fluid.hpp). A FluidSource calls
  // these once per coarse step; discs that gate traffic (token buckets,
  // RED) participate, everything else is transparent and the fluid
  // aggregate competes only for link capacity.

  /// Offer `bytes` of aggregate fluid arriving in class `dscp` over the
  /// step ending at `now`; returns the bytes the disc admits. The
  /// shortfall is fluid loss and feeds the aggregate's congestion
  /// response. Default: admit everything.
  virtual double fluid_offer(double bytes, std::uint8_t dscp, Time now) {
    (void)dscp;
    (void)now;
    return bytes;
  }

  /// Report the fluid aggregate's estimated standing queue at this hop.
  /// Occupancy-driven discs (RED's EWMA) fold it into their average;
  /// others ignore it. Default: no-op.
  virtual void fluid_set_backlog(std::int64_t bytes) { (void)bytes; }

 protected:
  void notify_drop(const Packet& pkt, Time now) {
    ++drops_;
    if (on_drop_) on_drop_(pkt, now);
  }
  /// A listener for a child disc that counts and reports the child's
  /// drops as this disc's own. The child must not outlive this disc.
  DropListener forward_drops() {
    return [this](const Packet& pkt, Time now) { notify_drop(pkt, now); };
  }

 private:
  DropListener on_drop_;
  std::uint64_t drops_ = 0;
};

class FifoDisc final : public QueueDisc {
 public:
  /// `limit_bytes` <= 0 means unlimited.
  explicit FifoDisc(std::int64_t limit_bytes = 0) : limit_(limit_bytes) {}

  bool enqueue(Packet pkt, Time now) override;
  std::optional<Packet> dequeue(Time now) override;
  Time next_ready(Time now) const override;
  std::int64_t backlog_bytes() const override { return bytes_; }
  std::size_t backlog_packets() const override { return packets_; }

  // A Link that times its FIFO's packets itself (link.hpp) keeps them out
  // of this disc and drives its accounting through these two calls;
  // enqueue() and dequeue() are admit() and release() around the disc's
  // own queue.

  /// Drop-tail admission at `now`: stamps `pkt.enqueued_at` and counts it
  /// into the backlog, or drops it (false).
  bool admit(Packet& pkt, Time now);
  /// An admitted packet leaves the backlog as its transmission begins
  /// `at`.
  void release(const Packet& pkt, Time at);

 private:
  std::int64_t limit_;
  std::int64_t bytes_ = 0;
  std::size_t packets_ = 0;
  PacketRing q_;
  // Hot-path observability (no-ops unless a Recorder is bound).
  obs::HistogramHandle residency_obs_{"queue.fifo.residency_ms", 0.0, 500.0,
                                      100};
  obs::CounterHandle drop_obs_{"queue.fifo.drop.overflow"};
};

class TbfDisc final : public QueueDisc {
 public:
  /// `rate` in bits/sec, `burst_bytes` = bucket size, `limit_bytes` = queue
  /// capacity for packets awaiting tokens.
  TbfDisc(Rate rate, std::int64_t burst_bytes, std::int64_t limit_bytes);

  bool enqueue(Packet pkt, Time now) override;
  std::optional<Packet> dequeue(Time now) override;
  Time next_ready(Time now) const override;
  std::int64_t backlog_bytes() const override { return bytes_; }
  std::size_t backlog_packets() const override { return q_.size(); }

  Rate rate() const { return rate_; }
  std::int64_t burst_bytes() const { return burst_; }
  double tokens(Time now) const;

  /// Fluid coupling: the aggregate drains real tokens — whatever the
  /// bucket cannot cover is fluid loss (the policing the packet backend
  /// applies per packet, applied in expectation).
  double fluid_offer(double bytes, std::uint8_t dscp, Time now) override;

 private:
  void refill(Time now);

  Rate rate_;
  std::int64_t burst_;
  std::int64_t limit_;
  double tokens_bytes_;
  Time last_refill_ = 0;
  std::int64_t bytes_ = 0;
  PacketRing q_;
  // Residency covers shaping delay; the drop counter covers policing.
  obs::HistogramHandle residency_obs_{"queue.tbf.residency_ms", 0.0, 500.0,
                                      100};
  obs::CounterHandle drop_obs_{"queue.tbf.drop.policed"};
};

/// Appendix C.1 rate-limiter: classifier + FIFO (default class) + TBF
/// (differentiated class), drained round-robin.
class RateLimiterDisc final : public QueueDisc {
 public:
  /// `throttled_q` is normally a TbfDisc; any disc works (e.g. the delayed
  /// fixed-rate throttler modelling ISP5).
  RateLimiterDisc(std::unique_ptr<FifoDisc> default_q,
                  std::unique_ptr<QueueDisc> throttled_q);
  // The classes report their drops to this object (forward_drops).
  RateLimiterDisc(const RateLimiterDisc&) = delete;
  RateLimiterDisc& operator=(const RateLimiterDisc&) = delete;

  bool enqueue(Packet pkt, Time now) override;
  std::optional<Packet> dequeue(Time now) override;
  Time next_ready(Time now) const override;
  std::int64_t backlog_bytes() const override;
  std::size_t backlog_packets() const override;

  const QueueDisc& throttled() const { return *throttled_; }
  QueueDisc& throttled() { return *throttled_; }
  const FifoDisc& default_class() const { return *default_; }

  /// Drops inside the throttled class only (differentiation-induced).
  std::uint64_t throttled_drops() const { return throttled_->drop_count(); }

  /// Fluid coupling: classify like enqueue — differentiated fluid goes
  /// through the throttled disc, default-class fluid through the FIFO.
  double fluid_offer(double bytes, std::uint8_t dscp, Time now) override;
  void fluid_set_backlog(std::int64_t bytes) override;

 private:
  std::unique_ptr<FifoDisc> default_;
  std::unique_ptr<QueueDisc> throttled_;
  bool serve_throttled_first_ = false;  // round-robin pointer
};

/// Random Early Detection (Floyd & Jacobson): an EWMA of the backlog
/// drives a drop probability that ramps from 0 at `min_th` to `max_p` at
/// `max_th`; above `max_th` every arrival is dropped. Used in ablations to
/// study how loss-trend correlation behaves when the shared bottleneck's
/// losses are smooth and probabilistic instead of drop-tail bursts.
class RedDisc final : public QueueDisc {
 public:
  RedDisc(std::int64_t min_th_bytes, std::int64_t max_th_bytes,
          double max_p, std::uint64_t seed = 1,
          double ewma_weight = 0.002);

  bool enqueue(Packet pkt, Time now) override;
  std::optional<Packet> dequeue(Time now) override;
  Time next_ready(Time now) const override;
  std::int64_t backlog_bytes() const override { return bytes_; }
  std::size_t backlog_packets() const override { return q_.size(); }

  double average_backlog() const { return avg_; }

  /// Fluid coupling: the early-drop probability applies to the aggregate
  /// in expectation (deterministic fractional loss, no RNG draws), and
  /// the fluid's standing queue joins the packet backlog in the EWMA.
  double fluid_offer(double bytes, std::uint8_t dscp, Time now) override;
  void fluid_set_backlog(std::int64_t bytes) override {
    fluid_backlog_ = bytes;
  }

 private:
  /// Current early-drop probability given the averaged occupancy.
  double drop_probability() const;

  std::int64_t min_th_;
  std::int64_t max_th_;
  double max_p_;
  double weight_;
  Rng rng_;
  double avg_ = 0.0;
  std::int64_t fluid_backlog_ = 0;
  std::int64_t bytes_ = 0;
  PacketRing q_;
  obs::HistogramHandle residency_obs_{"queue.red.residency_ms", 0.0, 500.0,
                                      100};
  obs::CounterHandle early_drop_obs_{"queue.red.drop.early"};
  obs::CounterHandle cap_drop_obs_{"queue.red.drop.cap"};
};

/// Per-flow rate limiter: like RateLimiterDisc, but the differentiated
/// class (dscp=1) gets one token-bucket filter *per flow key* instead of a
/// collective one — the §3.2 mechanism WeHeY cannot localize without the
/// §7 same-flow countermeasure. Flow TBFs are created on first sight with
/// identical parameters. The key is Packet::policer_key (falling back to
/// Packet::flow), so spoofed replays share one bucket.
class PerFlowRateLimiterDisc final : public QueueDisc {
 public:
  PerFlowRateLimiterDisc(std::unique_ptr<FifoDisc> default_q, Rate rate,
                         std::int64_t burst_bytes, std::int64_t limit_bytes);
  // The classes report their drops to this object (forward_drops).
  PerFlowRateLimiterDisc(const PerFlowRateLimiterDisc&) = delete;
  PerFlowRateLimiterDisc& operator=(const PerFlowRateLimiterDisc&) = delete;

  bool enqueue(Packet pkt, Time now) override;
  std::optional<Packet> dequeue(Time now) override;
  Time next_ready(Time now) const override;
  std::int64_t backlog_bytes() const override;
  std::size_t backlog_packets() const override;

  std::size_t flow_bucket_count() const { return buckets_.size(); }
  std::uint64_t throttled_drops() const;

 private:
  FlowId key_of(const Packet& pkt) const {
    return pkt.policer_key != 0 ? pkt.policer_key : pkt.flow;
  }

  std::unique_ptr<FifoDisc> default_;
  Rate rate_;
  std::int64_t burst_;
  std::int64_t limit_;
  // Insertion-ordered buckets for deterministic round-robin.
  std::vector<std::pair<FlowId, std::unique_ptr<TbfDisc>>> buckets_;
  std::size_t rr_next_ = 0;  ///< round-robin cursor over {default, buckets}
};

}  // namespace wehey::netsim
