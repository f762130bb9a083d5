#include "faults/plan.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"

namespace wehey::faults {

std::vector<std::string> shipped_plan_names() {
  return {"replay-abort",    "replay-abort-hard", "control-flaky",
          "control-dead",    "truncated-upload",  "corrupt-samples",
          "clock-skew",      "topology-flap",     "traceroute-damage",
          "kitchen-sink",    "event-storm"};
}

FaultPlan shipped_plan(const std::string& name, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.name = name;
  auto add = [&plan](FaultSpec spec) { plan.faults.push_back(spec); };

  if (name == "replay-abort") {
    // Occasional mid-stream server death; retries usually recover.
    FaultSpec s;
    s.kind = FaultKind::ReplayAbort;
    s.probability = 0.4;
    s.at_fraction = 0.5;
    add(s);
  } else if (name == "replay-abort-hard") {
    // Every replay dies early: exercises retry exhaustion and the
    // fallback to a fresh server pair.
    FaultSpec s;
    s.kind = FaultKind::ReplayAbort;
    s.probability = 1.0;
    s.at_fraction = 0.25;
    add(s);
  } else if (name == "control-flaky") {
    // Lossy, slow control plane; bounded retries should always get
    // through eventually.
    FaultSpec drop;
    drop.kind = FaultKind::ControlDrop;
    drop.probability = 0.35;
    add(drop);
    FaultSpec delay;
    delay.kind = FaultKind::ControlDelay;
    delay.probability = 0.5;
    delay.delay = milliseconds(300);
    add(delay);
  } else if (name == "control-dead") {
    // The control plane never answers: the session must give up with a
    // defined outcome instead of hanging or crashing.
    FaultSpec s;
    s.kind = FaultKind::ControlDrop;
    s.probability = 1.0;
    add(s);
  } else if (name == "truncated-upload") {
    // Path 2's uploads lose their tail (interrupted transfer).
    FaultSpec s;
    s.kind = FaultKind::MeasurementTruncate;
    s.path = 2;
    s.keep_fraction = 0.35;
    add(s);
  } else if (name == "corrupt-samples") {
    // Both paths upload partially garbled series.
    FaultSpec s;
    s.kind = FaultKind::MeasurementCorrupt;
    s.corrupt_fraction = 0.2;
    add(s);
  } else if (name == "clock-skew") {
    // Server 2's clock runs seconds ahead of server 1's.
    FaultSpec s;
    s.kind = FaultKind::ClockSkew;
    s.path = 2;
    s.delay = seconds(4);
    add(s);
  } else if (name == "topology-flap") {
    // The first lookups hit a pair that is down; replays also wobble.
    FaultSpec topo;
    topo.kind = FaultKind::TopologyUnavailable;
    topo.count = 2;
    add(topo);
    FaultSpec abort;
    abort.kind = FaultKind::ReplayAbort;
    abort.probability = 0.25;
    add(abort);
  } else if (name == "traceroute-damage") {
    // The gathering-step topology query comes back unusable: path 1's
    // traceroute loses its tail hops (ICMP black hole), path 2's reports
    // an aliased hop. Exercises the §3.3-filter re-check in the session.
    FaultSpec drop;
    drop.kind = FaultKind::TracerouteDrop;
    drop.path = 1;
    drop.hop_fraction = 0.6;
    add(drop);
    FaultSpec garble;
    garble.kind = FaultKind::TracerouteGarble;
    garble.path = 2;
    add(garble);
  } else if (name == "kitchen-sink") {
    // A bit of everything at once, at moderate rates.
    FaultSpec abort;
    abort.kind = FaultKind::ReplayAbort;
    abort.probability = 0.2;
    add(abort);
    FaultSpec drop;
    drop.kind = FaultKind::ControlDrop;
    drop.probability = 0.2;
    add(drop);
    FaultSpec trunc;
    trunc.kind = FaultKind::MeasurementTruncate;
    trunc.path = 2;
    trunc.probability = 0.5;
    trunc.keep_fraction = 0.5;
    add(trunc);
    FaultSpec corrupt;
    corrupt.kind = FaultKind::MeasurementCorrupt;
    corrupt.probability = 0.5;
    corrupt.corrupt_fraction = 0.1;
    add(corrupt);
    FaultSpec skew;
    skew.kind = FaultKind::ClockSkew;
    skew.path = 2;
    skew.probability = 0.5;
    skew.delay = seconds(2);
    add(skew);
    FaultSpec topo;
    topo.kind = FaultKind::TopologyUnavailable;
    topo.count = 1;
    add(topo);
  } else if (name == "event-storm") {
    // A retransmit livelock: path 1's replay wedges into a
    // microsecond-period timer chain that floods the event heap without
    // ever advancing the transfer. Nothing in the protocol terminates
    // it; only the supervisor's per-trial budget does, so this plan must
    // end in a BudgetExhausted outcome, never a hang.
    FaultSpec s;
    s.kind = FaultKind::EventStorm;
    s.path = 1;
    s.probability = 1.0;
    s.at_fraction = 0.1;
    s.storm_interval = microseconds(1);
    add(s);
  } else {
    WEHEY_EXPECTS(!"unknown shipped fault plan name");
  }
  return plan;
}

std::optional<FaultPlan> requested_plan(std::string name,
                                        std::uint64_t seed) {
  if (name.empty()) {
    if (const char* env = std::getenv("WEHEY_FAULT_PLAN")) name = env;
  }
  if (name.empty() || name == "0") return std::nullopt;
  const auto names = shipped_plan_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    std::fprintf(stderr, "unknown fault plan \"%s\"; shipped plans:",
                 name.c_str());
    for (const auto& known : names) std::fprintf(stderr, " %s", known.c_str());
    std::fputc('\n', stderr);
    std::exit(2);
  }
  if (seed == 0) {
    if (const char* env = std::getenv("WEHEY_CHAOS_SEED")) {
      seed = std::strtoull(env, nullptr, 10);
    }
  }
  return shipped_plan(name, seed == 0 ? 1 : seed);
}

}  // namespace wehey::faults
