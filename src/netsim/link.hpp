// Network elements that move packets:
//
//  * Link — a unidirectional point-to-point link: a queueing discipline in
//    front of a transmitter of fixed `bandwidth`, followed by propagation
//    `delay`. Non-work-conserving discs (TBF) are supported: when nothing
//    is eligible the link sleeps until the disc's next_ready() time, and
//    each packet costs two events, transmit done and then arrival at the
//    next hop. A link whose disc is a plain FifoDisc, and that no
//    FluidSource shares, times each packet when it accepts it instead (a
//    timed FIFO): a FIFO never waits on tokens, so the transmission
//    starts when the previous one ends, and its end is known. The link
//    keeps its accepted packets in one ring and one pending event, at the
//    front packet's arrival (end + delay, with the sequence number
//    reserved at acceptance): one event per packet. Its counters,
//    utilization windows, queue residency and tx listener see each
//    transmission when the link settles — whenever it is touched or read,
//    it catches up to now — with the transmission's own start and end
//    times.
//  * Pipe — an ideal fixed-delay element (used for uncongested reverse/ACK
//    paths, where differentiation never applies in our scenarios).
//  * Demux — delivers packets to per-flow receivers at an endpoint host.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/check.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "netsim/packet.hpp"
#include "netsim/queue.hpp"
#include "netsim/simulator.hpp"
#include "obs/hotpath.hpp"

namespace wehey::netsim {

/// Fixed accounting window for the per-link utilization histogram: each
/// completed window contributes one sample of busy-fraction in [0, 1].
inline constexpr Time kLinkUtilizationWindow = 100 * kMillisecond;

class Link final : public PacketSink {
 public:
  Link(Simulator& sim, Rate bandwidth, Time delay,
       std::unique_ptr<QueueDisc> disc, PacketSink* next = nullptr);

  void set_next(PacketSink* next) { next_ = next; }
  void receive(Packet pkt) override;

  QueueDisc& disc() { return *disc_; }
  const QueueDisc& disc() const { return *disc_; }
  Rate bandwidth() const { return bandwidth_; }
  /// Change the link capacity; affects transmissions started afterwards
  /// (a timed FIFO re-times the packets still waiting). Models
  /// time-varying access capacity (e.g. a cellular last hop).
  void set_bandwidth(Rate bandwidth);
  Time delay() const { return delay_; }

  // Hybrid fluid/packet coupling (netsim/fluid.hpp): fluid background
  // aggregates register their realized throughput here, and packet traffic
  // sees the remainder as its effective service capacity.

  /// A FluidSource shares this link: keep the two-event path, whose
  /// transmitter fluid bursts can take ahead of queued packets. Call
  /// before any packet arrives.
  void share_with_fluid() {
    WEHEY_EXPECTS(sent_.empty());
    timed_ = nullptr;
  }
  /// Add (or, with a negative delta, remove) fluid load in bits/sec.
  void add_fluid_load(Rate delta) {
    WEHEY_EXPECTS(timed_ == nullptr);
    fluid_load_ = std::max(0.0, fluid_load_ + delta);
  }
  /// A fluid aggregate's head-of-flow burst: the bytes occupy the
  /// transmitter as one busy period (a single event), so packet traffic
  /// queues behind them exactly as it would behind the burst's packets.
  void inject_fluid_burst(double bytes);
  Rate fluid_load() const { return fluid_load_; }
  /// Capacity left for packet traffic: nominal bandwidth minus fluid load,
  /// floored at 10% of nominal so packets always make progress (mirrors
  /// the fluid model's own capacity share).
  Rate effective_bandwidth() const {
    return fluid_load_ > 0.0
               ? std::max(bandwidth_ - fluid_load_, 0.1 * bandwidth_)
               : bandwidth_;
  }

  // Transmissions finished by now.
  std::uint64_t delivered_packets() const {
    settle();
    return delivered_;
  }
  std::int64_t delivered_bytes() const {
    settle();
    return delivered_bytes_;
  }
  /// Total simulated time spent transmitting (busy time).
  Time busy_time() const {
    settle();
    return busy_time_;
  }

  /// Name this link's utilization histogram "link.<label>.utilization"
  /// instead of the generic "link.utilization". Call before traffic flows.
  void set_obs_label(const std::string& label) {
    util_obs_.rename("link." + label + ".utilization");
  }

  /// Observer invoked for every packet the link finishes transmitting,
  /// with the transmission's end time (before propagation delay). A timed
  /// FIFO calls it when it settles, at or after that time. For
  /// tracing/instrumentation.
  void set_tx_listener(std::function<void(const Packet&, Time)> listener) {
    on_tx_ = std::move(listener);
  }

  /// Bring a timed FIFO's accounting up to now: release every packet
  /// whose transmission has begun from the disc's backlog, and count (and
  /// report to the tx listener) every transmission that has ended. The
  /// link settles itself whenever it is touched or read; a listener's
  /// owner calls this before reading what the listener recorded.
  void settle() const;

 private:
  /// A packet a timed FIFO accepted: its transmission [start, end), fixed
  /// at acceptance (set_bandwidth re-times it while it waits), and the
  /// sequence number of its arrival at the next hop, at end + delay.
  struct Timed {
    Packet pkt;
    Time start = 0;
    Time end = 0;
    std::uint64_t seq = 0;
  };

  void try_transmit();
  void finish_transmit(Packet pkt, Time tx_time);
  void account_transmit(Time tx_time, Time now) const;
  void receive_timed(Packet pkt);
  /// The pending event of a timed FIFO: the front packet reaches next_.
  void arrive();

  Simulator& sim_;
  Rate bandwidth_;
  Rate fluid_load_ = 0.0;  ///< bits/sec claimed by fluid aggregates
  double fluid_burst_bytes_ = 0.0;  ///< pending burst awaiting the transmitter
  Time delay_;
  std::unique_ptr<QueueDisc> disc_;
  PacketSink* next_;
  bool transmitting_ = false;
  Time wakeup_at_ = kNever;  // pending retry for a token-gated disc
  std::function<void(const Packet&, Time)> on_tx_;
  // The timed FIFO path (null/empty on the two-event path). sent_ holds
  // every accepted packet not yet at the next hop, in order; its first
  // begun_ have begun transmitting and its first ended_ have ended, as of
  // the last settle().
  FifoDisc* timed_ = nullptr;
  Ring<Timed> sent_;
  mutable std::size_t begun_ = 0;
  mutable std::size_t ended_ = 0;
  Time busy_until_ = 0;  ///< end of the last accepted transmission
  bool arrival_pending_ = false;
  // Counted when a transmission ends, which a timed FIFO learns in
  // settle(): mutable, so the const accessors settle first.
  mutable std::uint64_t delivered_ = 0;
  mutable std::int64_t delivered_bytes_ = 0;
  mutable Time busy_time_ = 0;
  // Utilization windows advance only while a recorder is bound; they are a
  // pure function of sim time, so the histogram is thread-count stable.
  mutable Time util_window_start_ = 0;
  mutable Time util_window_busy_ = 0;
  mutable obs::HistogramHandle util_obs_{"link.utilization", 0.0, 1.0, 20};
};

class Pipe final : public PacketSink {
 public:
  Pipe(Simulator& sim, Time delay, PacketSink* next = nullptr)
      : sim_(sim), delay_(delay), next_(next) {}

  void set_next(PacketSink* next) { next_ = next; }
  void receive(Packet pkt) override;

 private:
  Simulator& sim_;
  Time delay_;
  PacketSink* next_;
};

class Demux final : public PacketSink {
 public:
  void add_route(FlowId flow, PacketSink* sink) {
    WEHEY_EXPECTS(sink != nullptr);
    routes_[flow] = sink;
  }
  void receive(Packet pkt) override;

  std::uint64_t unrouted_packets() const { return unrouted_; }

 private:
  std::unordered_map<FlowId, PacketSink*> routes_;
  std::uint64_t unrouted_ = 0;
};

/// A sink that silently absorbs packets (for background-flow receivers that
/// do not need per-packet accounting).
class NullSink final : public PacketSink {
 public:
  void receive(Packet pkt) override {
    ++count_;
    bytes_ += pkt.size;
  }
  std::uint64_t packets() const { return count_; }
  std::int64_t bytes() const { return bytes_; }

 private:
  std::uint64_t count_ = 0;
  std::int64_t bytes_ = 0;
};

}  // namespace wehey::netsim
