// Hybrid fluid/packet simulation: FluidSource carries a background
// aggregate as a piecewise-constant offered-rate process instead of
// per-packet traffic.
//
// One FluidSource models one path's background aggregate traversing a
// chain of Links. It steps on the simulator's EventHeap at a coarse fixed
// interval (one event per step, against thousands of packet events for
// the same load) and at each step:
//
//   * offers the segment's per-class rate — scaled by a TCP-like
//     congestion-response multiplier — to each hop's queueing discipline
//     via QueueDisc::fluid_offer (token buckets drain real tokens, RED
//     applies its early-drop probability in expectation);
//   * pushes the admitted bytes through a per-hop leaky bucket bounded by
//     the link's remaining capacity, so link saturation shows up as a
//     standing fluid queue and, past the queue cap, as loss;
//   * registers its realized throughput on each Link as fluid load
//     (Link::add_fluid_load), which packet traffic sees as reduced
//     effective service capacity;
//   * feeds the step's loss fraction back into the per-class response
//     multiplier — multiplicative decrease on loss, linear recovery
//     otherwise — approximating the aggregate's TCP behaviour.
//
// Replay/probe flows stay fully packet-level; determinism is preserved
// because every fluid quantity is a pure function of simulated time (no
// RNG draws, no wall-clock reads).
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "obs/hotpath.hpp"

namespace wehey::netsim {

/// Piecewise-constant per-class offered rates: segment i covers
/// [i*step, (i+1)*step). A class vector may be empty (no such traffic).
struct FluidSegments {
  Time step = 100 * kMillisecond;
  std::vector<Rate> dflt;  ///< default class (dscp 0), bits/sec
  std::vector<Rate> diff;  ///< differentiated class (dscp 1), bits/sec
  /// Head-of-flow burst bytes fired at the start of segment i (may be
  /// empty): offered to each hop's disc, then injected as a link busy
  /// period so packet traffic queues behind them (Link::
  /// inject_fluid_burst) — the slow-start delay spike the smooth rate
  /// process cannot express.
  std::vector<double> burst_dflt;
  std::vector<double> burst_diff;
  std::size_t segments() const {
    return dflt.size() > diff.size() ? dflt.size() : diff.size();
  }
};

class FluidSource {
 public:
  /// `path` is the ordered chain of links the aggregate traverses; the
  /// source couples to each link's disc and capacity, and keeps each on
  /// the two-event path (Link::share_with_fluid), so construct it before
  /// any packet reaches them. Links must outlive the source.
  FluidSource(Simulator& sim, FluidSegments segments,
              std::vector<Link*> path);

  /// Schedule the first step at `offset` past one step interval from now.
  /// Call once. Distinct offsets desynchronize sources sharing a link:
  /// without them every aggregate drains tokens and fires bursts at the
  /// same instants, a phase lock packet-level interleaving does not have.
  void start(Time offset = 0);

  std::uint64_t steps() const { return steps_; }
  std::int64_t offered_bytes() const { return llround_nonneg(offered_); }
  std::int64_t delivered_bytes() const { return llround_nonneg(delivered_); }
  std::int64_t dropped_bytes() const { return llround_nonneg(dropped_); }
  /// Current per-class congestion-response multipliers in [kMinResponse, 1].
  double response_default() const { return resp_dflt_; }
  double response_diff() const { return resp_diff_; }

  /// Floor of the congestion-response multiplier (the aggregate never
  /// backs off to zero — flows keep probing, like TCP's one-MSS floor).
  static constexpr double kMinResponse = 0.05;
  /// Seconds for the response to recover from 0 to 1 without loss.
  static constexpr double kRampSeconds = 2.0;

 private:
  struct Hop {
    Link* link = nullptr;
    double contribution = 0.0;  ///< bits/sec registered on the link
    double q_dflt = 0.0;        ///< standing fluid queue estimate (bytes)
    double q_diff = 0.0;
  };

  void step_once();
  void detach();

  static std::int64_t llround_nonneg(double v) {
    return v > 0.0 ? static_cast<std::int64_t>(v + 0.5) : 0;
  }

  Simulator& sim_;
  FluidSegments seg_;
  std::vector<Hop> hops_;
  std::size_t index_ = 0;
  double resp_dflt_ = 1.0;
  double resp_diff_ = 1.0;
  std::uint64_t steps_ = 0;
  double offered_ = 0.0;
  double delivered_ = 0.0;
  double dropped_ = 0.0;
  // Hot-path observability (no-ops unless a Recorder is bound).
  obs::HistogramHandle rate_obs_{"fluid.rate_mbps", 0.0, 100.0, 50};
  obs::HistogramHandle response_obs_{"fluid.response", 0.0, 1.0, 20};
};

}  // namespace wehey::netsim
