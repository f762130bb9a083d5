// Network elements that move packets:
//
//  * Link — a unidirectional point-to-point link: a queueing discipline in
//    front of a transmitter of fixed `bandwidth`, followed by propagation
//    `delay`. Non-work-conserving discs (TBF) are supported: when nothing
//    is eligible the link sleeps until the disc's next_ready() time.
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
  /// Change the link capacity; affects transmissions started afterwards.
  /// Models time-varying access capacity (e.g. a cellular last hop).
  void set_bandwidth(Rate bandwidth) {
    WEHEY_EXPECTS(bandwidth > 0.0);
    bandwidth_ = bandwidth;
  }
  Time delay() const { return delay_; }

  // Hybrid fluid/packet coupling (netsim/fluid.hpp): fluid background
  // aggregates register their realized throughput here, and packet traffic
  // sees the remainder as its effective service capacity.

  /// Add (or, with a negative delta, remove) fluid load in bits/sec.
  void add_fluid_load(Rate delta) {
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

  std::uint64_t delivered_packets() const { return delivered_; }
  std::int64_t delivered_bytes() const { return delivered_bytes_; }
  /// Total simulated time spent transmitting (busy time).
  Time busy_time() const { return busy_time_; }

  /// Name this link's utilization histogram "link.<label>.utilization"
  /// instead of the generic "link.utilization". Call before traffic flows.
  void set_obs_label(const std::string& label) {
    util_obs_.rename("link." + label + ".utilization");
  }

  /// Observer invoked for every packet the link finishes transmitting
  /// (before propagation delay). For tracing/instrumentation.
  void set_tx_listener(std::function<void(const Packet&, Time)> listener) {
    on_tx_ = std::move(listener);
  }

 private:
  void try_transmit();
  void finish_transmit(Packet pkt, Time tx_time);
  void account_transmit(Time tx_time, Time now);

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
  std::uint64_t delivered_ = 0;
  std::int64_t delivered_bytes_ = 0;
  Time busy_time_ = 0;
  // Utilization windows advance only while a recorder is bound; they are a
  // pure function of sim time, so the histogram is thread-count stable.
  Time util_window_start_ = 0;
  Time util_window_busy_ = 0;
  obs::HistogramHandle util_obs_{"link.utilization", 0.0, 1.0, 20};
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
