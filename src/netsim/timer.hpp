// A one-shot timer that keeps at most one live event in the simulator's
// heap, however often it is re-armed.
//
// The transports' timers (RTO, PTO, pacing) use it. The retransmission
// timers are re-armed far more often than they fire: every ACK with data
// in flight pushes the RTO deadline back. Scheduling one
// event per arm() and ignoring the stale ones when they fire would leave
// one dead event per ACK in the heap.
// Timer instead reserves, on each arm(), the sequence number that
// schedule_at(at, ...) would have taken, and fires at exactly that key
// (at, seq) — so its firing orders against every other event, same-time
// ones included, exactly as a per-arm event would (see the reserved-key
// contract in event_heap.hpp). Its one event is pushed only when none is
// pending or when the new deadline is earlier than the pending event's;
// a pending event that comes due before the deadline moves itself to the
// deadline's key, and one superseded by an earlier deadline does nothing
// when it fires.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/check.hpp"
#include "common/time.hpp"
#include "netsim/simulator.hpp"

namespace wehey::netsim {

/// A re-armable one-shot timeout whose firing keeps the key of the
/// schedule_at() its last arm() stands for.
class Timer {
 public:
  /// `on_fire` runs when an armed deadline comes due; the timer is
  /// disarmed by then, and on_fire may arm() it again.
  Timer(Simulator& sim, std::function<void()> on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {}

  // The pending event points back at this timer.
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Fire at `at` (not in the past), replacing any earlier deadline. The
  /// firing gets the key a schedule_at(at, ...) issued here would have had.
  void arm(Time at) {
    WEHEY_EXPECTS(at >= sim_.now());
    armed_ = true;
    deadline_ = at;
    deadline_seq_ = sim_.reserve_seq(1);
    // A pending event due no later than `at` moves itself there.
    if (node_pending_ && node_clears_ == sim_.clears() && node_at_ <= at) {
      return;
    }
    node_pending_ = true;
    node_at_ = at;
    node_seq_ = deadline_seq_;
    node_clears_ = sim_.clears();
    sim_.schedule_keyed(at, node_seq_, [this, seq = node_seq_]() mutable {
      on_node(seq);
    });
  }

  /// Disarm. A pending event still fires, and does nothing.
  void cancel() { armed_ = false; }

  bool armed() const { return armed_; }

 private:
  /// The pending event came due at its key (now, seq); `seq` follows the
  /// event when it moves.
  void on_node(std::uint64_t& seq) {
    if (seq != node_seq_) return;  // superseded by an earlier deadline
    if (armed_ && seq == deadline_seq_) {
      armed_ = false;
      on_fire_();
    }
    if (!armed_) {
      node_pending_ = false;
      return;
    }
    // The deadline lies later (pushed back, or re-armed by on_fire_):
    // follow it. reschedule_current_keyed checks it is not an earlier key.
    sim_.reschedule_current_keyed(deadline_, deadline_seq_);
    seq = node_seq_ = deadline_seq_;
    node_at_ = deadline_;
  }

  Simulator& sim_;
  std::function<void()> on_fire_;
  bool armed_ = false;
  Time deadline_ = 0;              ///< the armed firing's key ...
  std::uint64_t deadline_seq_ = 0;  ///< ... (deadline_, deadline_seq_)
  bool node_pending_ = false;       ///< the live event's key ...
  Time node_at_ = 0;
  std::uint64_t node_seq_ = 0;      ///< ... (node_at_, node_seq_)
  std::uint64_t node_clears_ = 0;   ///< Simulator::clear()s at its push
};

}  // namespace wehey::netsim
