// Discrete-event simulation core.
//
// A Simulator owns a time-ordered queue of closures. Components schedule
// work with schedule()/schedule_at(); ties are broken by insertion order so
// runs are fully deterministic. A precomputed schedule (schedule_series())
// and a re-armable timeout (netsim::Timer, timer.hpp) keep one pending
// event each, firing at the keys their per-item events would have had; a
// FIFO Link (link.hpp) keeps one for the packets it has accepted.
// This plays the role ns-3's scheduler and the wall clock of the
// wide-area testbed play in the paper.
//
// The event queue is an EventHeap (owned binary heap + slot-pooled
// InplaceAction payloads). schedule()/schedule_at() forward the callable
// straight into its pool slot and run() invokes it in place, so the
// per-event hot path performs one capture construction and — for typical
// captures — no heap allocation at all.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"
#include "netsim/event_heap.hpp"

namespace wehey::obs {
class Recorder;
}

namespace wehey::netsim {

/// Per-trial resource ceilings, both pure sim quantities (dispatched
/// event count and absolute sim time) so budget verdicts are identical
/// across WEHEY_THREADS and host speeds. 0 disables a ceiling. Resolved
/// from the environment by parallel::trial_budget_from_env().
struct TrialBudget {
  std::uint64_t max_events = 0;  ///< cumulative dispatched events; 0 = off
  Time max_sim_time = 0;         ///< absolute sim-clock ceiling; 0 = off
  bool limited() const { return max_events > 0 || max_sim_time > 0; }
};

class Simulator {
 public:
  using Action = EventHeap::Action;

  Time now() const { return now_; }

  /// Run `action` `delay` from now (delay >= 0).
  template <typename F>
  void schedule(Time delay, F&& action) {
    WEHEY_EXPECTS(delay >= 0);
    schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Run `action` at absolute time `at` (not in the past).
  template <typename F>
  void schedule_at(Time at, F&& action) {
    WEHEY_EXPECTS(at >= now_);
    queue_.push(at, std::forward<F>(action));
  }

  /// Run `action(i)` at `times[i]` for every i, each with the key (time,
  /// seq) that back-to-back schedule_at(times[i], ...) calls made here
  /// would have given it: item i gets seq first + i, so dispatch order —
  /// against every other event, same-time ones included — is exactly
  /// theirs. Instead of one heap event per item the series keeps a single
  /// pending event that re-arms itself at the next item's key. `times`
  /// must not decrease and must not lie in the past.
  template <typename F>
  void schedule_series(std::vector<Time> times, F&& action) {
    if (times.empty()) return;
    WEHEY_EXPECTS(times.front() >= now_);
    WEHEY_EXPECTS(std::is_sorted(times.begin(), times.end()));
    const std::uint64_t first = reserve_seq(times.size());
    const Time at = times.front();
    schedule_keyed(at, first,
                   [this, first, next = std::size_t{0},
                    times = std::move(times),
                    action = std::forward<F>(action)]() mutable {
                     action(next++);
                     if (next < times.size()) {
                       reschedule_current_keyed(times[next], first + next);
                     }
                   });
  }

  // Reserved keys (see event_heap.hpp): a component that keeps one
  // pending event for a stream of items — schedule_series, netsim::Timer,
  // a timed FIFO Link — takes each item's sequence number when the item
  // comes into being and moves its event from key to key.

  /// Use up `n` sequence numbers, exactly as `n` schedule_at() calls made
  /// here would, and return the first.
  std::uint64_t reserve_seq(std::uint64_t n) { return queue_.reserve_seq(n); }

  /// Run `action` at the key (at, seq); `seq` came from reserve_seq() and
  /// was not used before. From within a running event the key must lie
  /// after that event's.
  template <typename F>
  void schedule_keyed(Time at, std::uint64_t seq, F&& action) {
    WEHEY_EXPECTS(at >= now_);
    queue_.push_keyed(at, seq, std::forward<F>(action));
  }

  /// From within a running event only: run it again at the key (at, seq)
  /// instead of retiring it — reschedule_current() at a reserved key. The
  /// key must lie after the running event's.
  void reschedule_current_keyed(Time at, std::uint64_t seq) {
    queue_.rearm_current_keyed(at, seq);
  }

  /// clear() calls so far: an event scheduled before the latest one is
  /// gone.
  std::uint64_t clears() const { return clears_; }

  /// From within a running event only: schedule the currently executing
  /// action to run again `delay` from now, reusing its storage and state —
  /// no copy, no allocation. The cheap path for periodic timers and
  /// self-perpetuating event chains. Takes effect when the event returns;
  /// the repeat fires after any same-time events the action scheduled.
  void reschedule_current(Time delay) {
    WEHEY_EXPECTS(delay >= 0);
    queue_.rearm_current(now_ + delay);
  }

  /// Process events until the queue is empty or `until` is reached; the
  /// clock ends at `until` if given, else at the last event. An installed
  /// trial budget caps the run and may end the trial (budget_exhausted).
  /// When an obs::Recorder is bound to the calling thread the loop
  /// additionally counts dispatched events, tracks the peak heap depth,
  /// and (with tracing on) samples the pending-event count into the
  /// timeline; with no recorder bound EventHeap::run_until runs alone.
  void run(Time until = -1);

  /// Drop all pending events (used between experiment phases; must not be
  /// called from inside a running event). The clock `now_` is intentionally
  /// preserved: consecutive phases of one experiment share a timeline, and
  /// components scheduled against the running clock must never observe time
  /// moving backwards.
  void clear();

  /// Number of queued events. When called from inside a running event, the
  /// count still includes that event (it is retired when it returns).
  std::size_t pending_events() const { return queue_.size(); }

  /// Install a per-trial budget. Call once, right after construction:
  /// the event count is cumulative across run() calls, so events that
  /// already ran would count against it.
  void set_trial_budget(const TrialBudget& budget) { budget_ = budget; }

  /// True once a budget ceiling cut a run() short of what its caller
  /// asked for. From then on run() is a no-op — the trial is over; the
  /// caller surfaces a BudgetExhausted outcome instead of spinning.
  bool budget_exhausted() const { return exhausted_ != Exhausted::kNone; }

  /// Machine-readable cause: "events" or "sim_time" once exhausted,
  /// "" before that.
  const char* budget_reason() const {
    switch (exhausted_) {
      case Exhausted::kNone: return "";
      case Exhausted::kEvents: return "events";
      case Exhausted::kSimTime: return "sim_time";
    }
    return "";
  }

  /// Events dispatched so far, cumulative across run() calls.
  std::uint64_t budget_events_dispatched() const { return dispatched_; }

 private:
  enum class Exhausted { kNone, kEvents, kSimTime };

  /// The dispatch loop with observability hooks (out of line so the
  /// common no-recorder path stays a single inlined run_until call).
  /// Dispatches at most `max_events` events; returns how many ran.
  std::uint64_t run_observed(Time until, obs::Recorder& rec,
                             std::uint64_t max_events);

  Time now_ = 0;
  EventHeap queue_;
  std::uint64_t clears_ = 0;  ///< clear() calls
  TrialBudget budget_;
  std::uint64_t dispatched_ = 0;  ///< cumulative dispatched events
  Exhausted exhausted_ = Exhausted::kNone;
};

}  // namespace wehey::netsim
