// The FaultInjector interprets a FaultPlan at the pipeline's decision
// points: replay starts, control-plane exchanges, measurement uploads and
// topology lookups. The session coordinator and the scenario/wild phase
// runners consult it unconditionally: with an empty plan every hook
// returns "no fault" at once and draws nothing.
//
// Determinism: the injector owns its own Rng seeded from the plan, so
// fault decisions never perturb the simulation's random streams — a
// faulted run and a clean run of the same scenario share every simulated
// packet up to the first injected fault.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "faults/plan.hpp"
#include "netsim/measure.hpp"
#include "topology/traceroute.hpp"

namespace wehey::faults {

/// Decision for one replay start.
struct ReplayFault {
  bool abort = false;
  double at_fraction = 0.5;        ///< where the server dies (fraction)
  std::int64_t after_bytes = -1;   ///< byte offset; >= 0 wins

  /// EventStorm: the replay wedges into a self-perpetuating timer chain
  /// (retransmit livelock) `storm_at_fraction` into the replay, firing
  /// every `storm_interval`. The chain never ends on its own; the
  /// supervisor's per-trial budget is what stops the run.
  bool storm = false;
  double storm_at_fraction = 0.1;
  Time storm_interval = 0;
};

/// Decision for one control-plane exchange.
struct ControlFault {
  bool dropped = false;
  Time extra_delay = 0;
};

/// What the injector did so far (for session results and the bench): one
/// count per FaultKind.
struct InjectionStats {
  /// Report names of the counts, in FaultKind order.
  static constexpr const char* kNames[] = {
      "replays_aborted",        "controls_dropped",     "controls_delayed",
      "measurements_truncated", "measurements_corrupted",
      "clocks_skewed",          "topology_unavailable", "traceroutes_dropped",
      "traceroutes_garbled",    "event_storms"};
  static_assert(std::size(kNames) == kFaultKindCount);

  std::array<int, kFaultKindCount> counts{};

  int& operator[](FaultKind kind) {
    return counts[static_cast<std::size_t>(kind)];
  }
  int operator[](FaultKind kind) const {
    return counts[static_cast<std::size_t>(kind)];
  }

  int total() const {
    int sum = 0;
    for (const int c : counts) sum += c;
    return sum;
  }

  /// Kind-by-kind accumulation (per-phase stats into a run total).
  InjectionStats& operator+=(const InjectionStats& o) {
    for (std::size_t k = 0; k < kFaultKindCount; ++k) counts[k] += o.counts[k];
    return *this;
  }

  /// Stable name -> count view for report writers (every kind listed,
  /// zeros included, in FaultKind order).
  std::vector<std::pair<const char*, int>> by_kind() const {
    std::vector<std::pair<const char*, int>> out;
    out.reserve(kFaultKindCount);
    for (std::size_t k = 0; k < kFaultKindCount; ++k) {
      out.emplace_back(kNames[k], counts[k]);
    }
    return out;
  }
};

class FaultInjector {
 public:
  /// Disabled injector: every hook reports "no fault".
  FaultInjector() = default;
  explicit FaultInjector(const FaultPlan& plan);

  bool enabled() const { return !plan_.faults.empty(); }
  const FaultPlan& plan() const { return plan_; }

  /// Consulted when a replay is about to start on `path`.
  ReplayFault on_replay_start(int path);

  /// Consulted per control-plane exchange attempt.
  ControlFault on_control_exchange();

  /// Consulted per topology-database lookup; true = the returned pair is
  /// transiently unavailable and the lookup must be retried.
  bool on_topology_lookup();

  /// Applies truncate/corrupt/skew faults for `path` to the uploaded
  /// measurement in place. Returns true if anything was modified.
  bool on_measurement_upload(int path, netsim::ReplayMeasurement& m);

  /// Consulted per traceroute issued during the gathering step's topology
  /// query. Damages `record` in place — TracerouteDrop marks tail hops
  /// unresponsive (ICMP black hole), TracerouteGarble makes a hop report
  /// a second IP (alias) — so the record fails the §3.3 filter conditions
  /// downstream. Returns true if the record was modified.
  bool on_traceroute(int path, topology::TracerouteRecord& record);

  const InjectionStats& stats() const { return stats_; }

 private:
  /// Probability + remaining-count bookkeeping for spec `i`.
  bool fire(std::size_t i, int path);

  FaultPlan plan_;
  std::vector<int> budget_;  ///< per-spec remaining fires; -1 = unlimited
  Rng rng_;
  InjectionStats stats_;
};

// Measurement mutations, exposed for tests and for applying fault plans
// to offline measurement bundles.

/// Cut the uploaded series: only [start, start + keep_fraction * duration)
/// survives; end is moved to the cut (the gatherer knows only that much
/// arrived).
void truncate_measurement(netsim::ReplayMeasurement& m, double keep_fraction);

/// Garble ~`fraction` of the latency samples (non-finite or negative
/// values) and displace some event timestamps outside the replay window.
void corrupt_measurement(netsim::ReplayMeasurement& m, double fraction,
                         Rng& rng);

/// Offset every timestamp by `skew` (a server clock disagreement).
void skew_measurement(netsim::ReplayMeasurement& m, Time skew);

}  // namespace wehey::faults
