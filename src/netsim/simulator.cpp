#include "netsim/simulator.hpp"

#include <limits>

#include "obs/recorder.hpp"

namespace wehey::netsim {

void Simulator::run(Time until) {
  // A tripped budget ends the trial: later run() calls are no-ops so the
  // caller can unwind through its normal phase sequence without
  // dispatching another event.
  if (exhausted_ != Exhausted::kNone) return;
  // Clip the horizon to the sim-time ceiling; events beyond it are never
  // dispatched, only observed as pending.
  Time horizon = until;
  const Time ceiling = budget_.max_sim_time;
  if (ceiling > 0 && (horizon < 0 || horizon > ceiling)) horizon = ceiling;
  const std::uint64_t room =
      budget_.max_events > 0 ? budget_.max_events - dispatched_
                             : std::numeric_limits<std::uint64_t>::max();
  obs::Recorder* rec = obs::Recorder::current();
  if (rec == nullptr) {
    dispatched_ += queue_.run_until(horizon, now_, room);
  } else {
    dispatched_ += run_observed(horizon, *rec, room);
  }
  // A ceiling only trips when it actually cut the run short of what the
  // caller asked for: a pending event the caller's `until` would have
  // reached. Otherwise the budget was a bystander and the run completed.
  if (budget_.max_events > 0 && dispatched_ >= budget_.max_events &&
      !queue_.empty() && (until < 0 || queue_.top_time() <= until)) {
    exhausted_ = Exhausted::kEvents;
    return;
  }
  if (ceiling > 0 && !queue_.empty() && queue_.top_time() > ceiling &&
      (until < 0 || until > ceiling)) {
    exhausted_ = Exhausted::kSimTime;
    return;
  }
  if (until >= 0 && now_ < until) now_ = until;
}

std::uint64_t Simulator::run_observed(Time until, obs::Recorder& rec,
                                      std::uint64_t max_events) {
  obs::Counter& events = rec.metrics().counter("sim.events");
  obs::Gauge& depth = rec.metrics().gauge("sim.heap_depth_peak");
  obs::Timeline* tl = rec.trace_on() ? &rec.timeline() : nullptr;
  // Sampling keeps the heap-depth series bounded: one counter event per
  // 8192 dispatches is plenty for a timeline and costs nothing between
  // samples. Counting is exact either way.
  constexpr std::uint64_t kSampleMask = (1u << 13) - 1;
  std::uint64_t dispatched = 0;
  std::size_t peak = 0;
  while (dispatched < max_events && !queue_.empty()) {
    const Time at = queue_.top_time();
    if (until >= 0 && at > until) break;
    now_ = at;
    const std::size_t pending = queue_.size();
    if (pending > peak) peak = pending;
    if (tl != nullptr && (dispatched & kSampleMask) == 0) {
      tl->counter("sim.pending_events", now_, static_cast<double>(pending));
    }
    queue_.run_top();
    ++dispatched;
  }
  if (dispatched > 0) {
    events.inc(dispatched);
    depth.set(static_cast<double>(peak));
  }
  return dispatched;
}

void Simulator::clear() {
  queue_.clear();
  ++clears_;
}

}  // namespace wehey::netsim
