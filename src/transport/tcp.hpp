// A from-scratch TCP implementation sufficient for the paper's setting:
// bulk/chunked data transfer over a differentiated bottleneck, with the
// sender-side behaviours WeHeY depends on:
//
//  * CUBIC congestion control (RFC 8312 window growth, beta = 0.7) with a
//    NewReno-style fast retransmit / fast recovery loss response and an
//    RFC 6298 retransmission timer,
//  * optional TCP pacing (cwnd/srtt-rate spacing of segments) — the trace
//    "modification" of §3.4 that plays the role Poisson re-timing plays
//    for UDP,
//  * retransmission-based loss estimation at the sender: each
//    retransmission is registered as one loss event *at the time of the
//    retransmission*, reproducing both error types the paper describes in
//    §4.2 (over-counting, and desynchronization relative to the true drop
//    time).
//
// The receiver ACKs every data segment cumulatively and attaches SACK
// blocks for out-of-order data; the sender runs RFC 6675-style pipe
// accounting and hole repair, like the Linux stacks the paper's testbed
// used.
//
// The sender's scoreboard keeps these invariants:
//
//  * Segment boundaries never move. Data is cut into segments once, when
//    first sent, and a retransmission repeats a segment's (seq, len). So
//    every cumulative ACK and every SACK block edge is a segment boundary.
//  * The outstanding segments sit in one Ring in sequence order, back to
//    back: the front starts at una_ and the back ends at next_seq_.
//    Segments are appended at next_seq_ and erased only from the front, so
//    finding the segment at a sequence number is a binary search.
//  * `sacked` only goes from false to true. Hence the sender's RangeSet of
//    SACKed bytes, each block clipped to [una_, next_seq_) when read and
//    the set trimmed as una_ advances, is exactly the bytes of the segments
//    marked sacked, and sacked_bytes_ is its size. A block is walked only
//    where that set does not already cover it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"
#include "netsim/measure.hpp"
#include "netsim/packet.hpp"
#include "netsim/ring.hpp"
#include "netsim/sack_log.hpp"
#include "netsim/simulator.hpp"
#include "netsim/timer.hpp"
#include "obs/hotpath.hpp"
#include "transport/range_set.hpp"

namespace wehey::transport {

/// Congestion-control algorithm of a sender. Cubic matches the paper's
/// evaluation; NewReno is kept for ablations; Bbr is a model-level BBRv1
/// (windowed-max bandwidth / windowed-min RTT, startup/drain/probe-bw
/// gain cycling, loss-tolerant) for the §7 open question of how loss
/// correlations behave under BBR.
enum class CongestionControl { Cubic, NewReno, Bbr };

struct TcpConfig {
  std::uint32_t mss = 1448;         ///< payload bytes per segment
  std::uint32_t header_bytes = 52;  ///< IP+TCP wire overhead per segment
  std::uint32_t ack_bytes = 52;     ///< wire size of a pure ACK
  double initial_cwnd_segments = 10.0;
  Time initial_rtt_guess = milliseconds(50);  ///< pacing before first RTT
  Time min_rto = milliseconds(200);
  Time max_rto = seconds(10);
  bool pacing = true;
  double pacing_gain_slow_start = 2.0;
  double pacing_gain_avoidance = 1.2;
  CongestionControl cc = CongestionControl::Cubic;
  double cubic_c = 0.4;
  double cubic_beta = 0.7;
  std::int64_t max_cwnd_bytes = 8 * 1024 * 1024;

  // Receiver: delayed ACKs (RFC 1122): ACK every 2nd in-order segment or
  // after the delayed-ACK timer; out-of-order data is ACKed immediately
  // (dup-ACK/SACK latency is unaffected). Off by default — WeHe clients
  // effectively see per-packet ACKs on the paths that matter here, and
  // the evaluation is calibrated that way.
  bool delayed_acks = false;
  Time delayed_ack_timeout = milliseconds(40);

  // BBR model parameters.
  double bbr_startup_gain = 2.885;
  double bbr_cwnd_gain = 2.0;
  Time bbr_bw_window = milliseconds(350);  ///< ~10 RTTs at the default RTT
  Time bbr_rtprop_window = seconds(10);
};

class TcpSender final : public netsim::PacketSink {
 public:
  /// `out` is the first element of the forward (data) path. ACKs arrive
  /// via receive().
  TcpSender(netsim::Simulator& sim, netsim::PacketIdSource& ids,
            TcpConfig cfg, netsim::FlowId flow, std::uint8_t dscp,
            netsim::PacketSink* out);

  /// Key stamped into Packet::policer_key (0: the flow id). The §7
  /// same-flow countermeasure gives two replays the same key.
  void set_policer_key(netsim::FlowId key) { policer_key_ = key; }

  /// Make `bytes` more application data available to send.
  void supply(std::int64_t bytes);
  /// Returns true once every supplied byte has been cumulatively acked.
  bool complete() const;
  /// Invoked (once) when complete() becomes true.
  void set_on_complete(std::function<void()> cb) { on_complete_ = std::move(cb); }

  // ACK input.
  void receive(netsim::Packet pkt) override;

  /// Sender-side measurements: transmissions, retransmission-based loss
  /// events, RTT samples. Deliveries are recorded by the receiver.
  const netsim::ReplayMeasurement& measurement() const { return meas_; }
  netsim::ReplayMeasurement& measurement() { return meas_; }

  double cwnd_bytes() const { return cwnd_; }
  double ssthresh_bytes() const { return ssthresh_; }
  Time srtt() const { return srtt_; }
  std::uint64_t retransmissions() const { return retx_count_; }
  std::uint64_t timeouts() const { return timeout_count_; }

  // State inspection (tests, debugging).
  bool in_recovery() const { return in_recovery_; }
  std::uint64_t una() const { return una_; }
  std::uint64_t next_seq() const { return next_seq_; }
  int dup_ack_count() const { return dup_acks_; }
  std::int64_t pipe_bytes() const { return pipe(); }
  std::int64_t sacked_bytes() const { return sacked_bytes_; }

 private:
  struct Segment {
    std::uint64_t seq = 0;  ///< first byte
    Time first_sent = 0;
    std::int64_t delivered_at_send = 0;  ///< BBR delivery-rate sampling
    std::uint32_t len = 0;
    bool retransmitted = false;
    bool sacked = false;            ///< covered by a received SACK block
    bool lost = false;              ///< deemed lost (RFC 6675 IsLost)
    bool retx_in_recovery = false;  ///< already repaired this recovery
    std::uint64_t end() const { return seq + len; }
  };

  /// Send while the pipe has room: SACK-based hole repairs first (RFC 6675
  /// in spirit), then new data.
  void maybe_send();
  void send_new_segment();
  void transmit(const Segment& seg, bool is_retx);
  void retransmit_front(bool timeout);
  void apply_sack(const netsim::Packet& ack_pkt);
  /// Mark the outstanding segments inside [from, to) sacked.
  void mark_sacked(std::uint64_t from, std::uint64_t to);
  /// Index in outstanding_ of the first segment starting at or above
  /// `seq` (outstanding_.size() if none).
  std::size_t first_segment_from(std::uint64_t seq) const;
  /// Outstanding bytes believed in flight: sent data minus SACKed minus
  /// deemed-lost (RFC 6675's pipe).
  std::int64_t pipe() const {
    return inflight() - sacked_bytes_ - lost_bytes_;
  }
  void on_new_ack(std::uint64_t ack, Time now);
  void update_rtt(Time sample);
  void arm_rto() { rto_timer_.arm(sim_.now() + rto_); }
  void cancel_rto() { rto_timer_.cancel(); }
  void on_rto();
  void slow_start_or_avoid(std::int64_t acked_bytes, Time now);
  void cubic_on_ack(Time now);
  void enter_loss_recovery(bool timeout);
  double pacing_rate() const;  // bits/sec
  double cwnd_segments() const { return cwnd_ / mss_d(); }
  double mss_d() const { return static_cast<double>(cfg_.mss); }
  std::int64_t inflight() const {
    return static_cast<std::int64_t>(next_seq_ - una_);
  }

  netsim::Simulator& sim_;
  netsim::PacketIdSource& ids_;
  TcpConfig cfg_;
  netsim::FlowId flow_;
  netsim::FlowId policer_key_ = 0;
  std::uint8_t dscp_;
  netsim::PacketSink* out_;

  // Application data.
  std::int64_t supplied_ = 0;
  std::int64_t available_ = 0;  ///< supplied but not yet sent

  // Sequence state (byte sequence numbers).
  std::uint64_t una_ = 0;       ///< lowest unacked byte
  std::uint64_t next_seq_ = 0;  ///< next new byte to send
  /// Segments [una_, next_seq_) in order; its buffer is freed when idle.
  netsim::Ring<Segment> outstanding_;
  RangeSet sacked_ranges_;  ///< SACKed bytes in [una_, next_seq_)
  std::int64_t sacked_bytes_ = 0;
  std::int64_t lost_bytes_ = 0;
  std::uint64_t highest_sacked_ = 0;   ///< highest SACKed byte + 1
  std::uint64_t loss_scan_floor_ = 0;  ///< below this all segs classified
  // Hole repair resumes its search here: no segment in [una_, cursor) is
  // a hole (neither SACKed nor repaired this episode). Exact because,
  // within an episode, `sacked` and `retx_in_recovery` only go from false
  // to true and recover_ stays put, so the first hole never moves down.
  // enter_loss_recovery, the only code that clears `retx_in_recovery` or
  // sets recover_, resets the cursor.
  std::uint64_t hole_cursor_ = 0;

  // Congestion control.
  double cwnd_ = 0;
  double ssthresh_ = 0;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  bool rto_recovery_ = false;  ///< recovery entered via timeout: slow-start
                               ///< regrowth while repairing
  std::uint64_t recover_ = 0;  ///< recovery ends when una_ passes this

  // CUBIC state (segment units, per RFC 8312).
  double w_max_ = 0;
  Time epoch_start_ = -1;
  double cubic_k_ = 0;
  double w_est_ = 0;

  // BBR state (model-level BBRv1).
  enum class BbrMode { Startup, Drain, ProbeBw };
  void bbr_on_ack(std::int64_t acked_bytes, Time now,
                  std::int64_t delivered_at_send, Time sent_at);
  double bbr_bw() const;      ///< windowed-max delivery rate (bits/sec)
  Time bbr_rtprop() const;    ///< windowed-min RTT
  double bbr_pacing_gain() const;
  BbrMode bbr_mode_ = BbrMode::Startup;
  std::int64_t delivered_total_ = 0;
  std::deque<std::pair<Time, double>> bw_samples_;   // (time, bits/sec)
  std::deque<std::pair<Time, Time>> rtprop_samples_; // (time, rtt)
  double bbr_full_bw_ = 0;
  int bbr_full_bw_rounds_ = 0;
  int bbr_cycle_index_ = 0;
  Time bbr_cycle_start_ = 0;
  // Long-term ("lt") bandwidth sampling: Linux BBRv1's policer detection.
  // Sustained high loss over consecutive sampling epochs pins the pacing
  // rate to the long-term delivered rate instead of the (burst-inflated)
  // windowed max, until a re-probe interval elapses.
  bool lt_mode_ = false;
  double lt_bw_ = 0;                ///< bits/sec while in lt mode
  Time lt_mode_entered_ = 0;
  Time lt_epoch_start_ = 0;
  std::int64_t lt_epoch_delivered_ = 0;
  std::uint64_t lt_epoch_tx_ = 0;
  std::uint64_t lt_epoch_retx_ = 0;
  int lt_high_loss_epochs_ = 0;
  double lt_prev_epoch_rate_ = 0;

  // RTT estimation / RTO (RFC 6298).
  Time srtt_ = 0;
  Time rttvar_ = 0;
  Time rto_ = seconds(1);
  netsim::Timer rto_timer_{sim_, [this] { on_rto(); }};

  // Pacing.
  Time pace_next_ = 0;
  netsim::Timer pace_timer_{sim_, [this] { maybe_send(); }};
  Time last_send_ = 0;
  Time last_loss_event_ = -1;  ///< RTT-sampling guard (see update path)

  netsim::ReplayMeasurement meas_;
  std::uint64_t retx_count_ = 0;
  std::uint64_t timeout_count_ = 0;
  std::function<void()> on_complete_;
  bool completed_notified_ = false;

  // Hot-path observability (no-ops unless a Recorder is bound): RTT
  // sample and smoothed-RTT distributions, retransmit / timeout tallies.
  obs::HistogramHandle rtt_obs_{"tcp.rtt_ms", 0.0, 400.0, 80};
  obs::HistogramHandle srtt_obs_{"tcp.srtt_ms", 0.0, 400.0, 80};
  obs::CounterHandle retx_obs_{"tcp.retx_segments"};
  obs::CounterHandle rto_obs_{"tcp.rto_timeouts"};
};

class TcpReceiver final : public netsim::PacketSink {
 public:
  /// `ack_out` is the first element of the reverse (ACK) path back to the
  /// sender.
  TcpReceiver(netsim::Simulator& sim, netsim::PacketIdSource& ids,
              TcpConfig cfg, netsim::FlowId flow,
              netsim::PacketSink* ack_out);

  void receive(netsim::Packet pkt) override;

  std::uint64_t acks_sent() const { return acks_sent_; }

  /// Invoked with the number of new bytes each time in-order data is
  /// delivered (the application-layer read stream). Used by split-TCP
  /// middleboxes and application-layer measurement.
  void set_on_deliver(std::function<void(std::int64_t)> cb) {
    on_deliver_ = std::move(cb);
  }

  /// Client-side arrivals (throughput measurement basis).
  const std::vector<netsim::Delivery>& deliveries() const {
    return deliveries_;
  }
  /// One-way-delay samples observed at the client, in ms.
  const std::vector<double>& delay_samples_ms() const { return owd_ms_; }
  std::uint64_t received_packets() const { return deliveries_.size(); }
  /// All payload bytes that arrived, duplicates included (wire view).
  std::int64_t received_bytes() const { return received_bytes_; }
  /// In-order bytes delivered to the application (the read stream).
  std::int64_t received_in_order_bytes() const {
    return static_cast<std::int64_t>(rcv_next_);
  }

 private:
  netsim::Simulator& sim_;
  netsim::PacketIdSource& ids_;
  TcpConfig cfg_;
  netsim::FlowId flow_;
  netsim::PacketSink* ack_out_;

  void fill_sack_blocks(netsim::Packet& ack);
  void send_ack(Time now);

  std::uint64_t rcv_next_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::function<void(std::int64_t)> on_deliver_;
  int unacked_segments_ = 0;       // delayed-ACK counter
  netsim::Timer delack_timer_{sim_, [this] { send_ack(sim_.now()); }};
  // Out-of-order data above rcv_next_. A segment's (seq, len) never
  // changes across retransmissions, so an arrival lies either inside one
  // range (a duplicate) or apart from every range.
  RangeSet out_of_order_;
  std::vector<netsim::Delivery> deliveries_;
  std::vector<double> owd_ms_;
  std::int64_t received_bytes_ = 0;
  netsim::SackLog sack_log_;  ///< SACK blocks of this flow's ACKs in flight
};

}  // namespace wehey::transport
