// Chaos harness for the fault-injection subsystem: every shipped fault
// plan must leave the pipeline with a *defined* outcome — no aborts, no
// hangs, no undefined verdicts — and a disabled plan must be invisible.
//
// The base seed is injectable via WEHEY_CHAOS_SEED so CI can sweep the
// same suite across several seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "experiments/params.hpp"
#include "experiments/scenario.hpp"
#include "experiments/wild.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "obs/recorder.hpp"
#include "replay/session.hpp"
#include "trace/apps.hpp"
#include "trace/trace.hpp"

namespace wehey {
namespace {

std::uint64_t chaos_seed() {
  if (const char* v = std::getenv("WEHEY_CHAOS_SEED")) {
    const long parsed = std::atol(v);
    if (parsed > 0) return static_cast<std::uint64_t>(parsed);
  }
  return 1;
}

netsim::ReplayMeasurement synth_measurement(Time duration = seconds(20)) {
  netsim::ReplayMeasurement m;
  m.start = seconds(1);
  m.end = m.start + duration;
  Rng rng(99);
  const Time step = milliseconds(50);
  for (Time t = m.start; t < m.end; t += step) {
    m.tx_times.push_back(t);
    if (rng.bernoulli(0.05)) m.loss_times.push_back(t);
    m.deliveries.push_back({t, 1200});
    m.rtt_ms.push_back(35.0 + rng.uniform(0.0, 3.0));
  }
  return m;
}

replay::SessionConfig chaos_session_config() {
  replay::SessionConfig cfg;
  // Scenario seed 2 is known (test_replay_session) to detect
  // differentiation and reach the simultaneous phases.
  cfg.scenario = experiments::default_scenario("Netflix", 2);
  cfg.scenario.replay_duration = seconds(30);
  cfg.t_diff_history = {0.06, -0.09, 0.12, -0.04, 0.08, -0.11,
                        0.05, -0.07, 0.10, -0.03, 0.09, -0.06};
  return cfg;
}

// --- Plan and injector mechanics -----------------------------------------

TEST(FaultPlan, EmptyPlanIsDisabled) {
  faults::FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  faults::FaultInjector off;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.on_replay_start(1).abort);
  EXPECT_FALSE(off.on_control_exchange().dropped);
  EXPECT_FALSE(off.on_topology_lookup());
  auto m = synth_measurement();
  const auto before_tx = m.tx_times.size();
  EXPECT_FALSE(off.on_measurement_upload(2, m));
  EXPECT_EQ(m.tx_times.size(), before_tx);
  EXPECT_EQ(off.stats().total(), 0);
}

TEST(FaultPlan, ShippedPlansAreWellFormed) {
  const auto names = faults::shipped_plan_names();
  ASSERT_GE(names.size(), 9u);
  for (const auto& name : names) {
    const auto plan = faults::shipped_plan(name, 7);
    EXPECT_TRUE(plan.enabled()) << name;
    EXPECT_EQ(plan.name, name);
    EXPECT_EQ(plan.seed, 7u);
  }
}

/// Sets WEHEY_FAULT_PLAN / WEHEY_CHAOS_SEED for a scope (nullptr
/// unsets) and restores the caller's values, which the chaos sweep reads.
class PlanEnv {
 public:
  PlanEnv(const char* plan, const char* seed) {
    save("WEHEY_FAULT_PLAN", plan);
    save("WEHEY_CHAOS_SEED", seed);
  }
  ~PlanEnv() {
    for (const auto& [name, value] : saved_) {
      if (value.has_value()) {
        ::setenv(name, value->c_str(), 1);
      } else {
        ::unsetenv(name);
      }
    }
  }

 private:
  void save(const char* name, const char* value) {
    const char* old = std::getenv(name);
    saved_.emplace_back(name, old != nullptr
                                  ? std::optional<std::string>(old)
                                  : std::nullopt);
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  std::vector<std::pair<const char*, std::optional<std::string>>> saved_;
};

TEST(RequestedPlan, EmptyOrZeroNameMeansNoPlan) {
  PlanEnv env(nullptr, nullptr);
  EXPECT_FALSE(faults::requested_plan().has_value());
  EXPECT_FALSE(faults::requested_plan("0").has_value());
  PlanEnv zero("0", "7");
  EXPECT_FALSE(faults::requested_plan().has_value());
}

TEST(RequestedPlan, FlagsWinOverTheEnvironment) {
  PlanEnv env("clock-skew", "7");
  auto plan = faults::requested_plan();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->name, "clock-skew");
  EXPECT_EQ(plan->seed, 7u);
  plan = faults::requested_plan("replay-abort", 3);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->name, "replay-abort");
  EXPECT_EQ(plan->seed, 3u);
  PlanEnv unseeded("clock-skew", "0");
  EXPECT_EQ(faults::requested_plan()->seed, 1u);
}

TEST(RequestedPlanDeathTest, UnknownNameListsShippedPlansAndExits2) {
  PlanEnv env(nullptr, nullptr);
  EXPECT_EXIT(faults::requested_plan("bogus-plan"),
              ::testing::ExitedWithCode(2), "bogus-plan.*replay-abort");
  PlanEnv from_env("bogus-plan", nullptr);
  EXPECT_EXIT(faults::requested_plan(), ::testing::ExitedWithCode(2),
              "event-storm");
}

TEST(FaultInjector, DeterministicAcrossInstances) {
  const auto plan = faults::shipped_plan("kitchen-sink", chaos_seed());
  faults::FaultInjector a(plan);
  faults::FaultInjector b(plan);
  for (int i = 0; i < 50; ++i) {
    const int path = 1 + (i % 2);
    const auto ra = a.on_replay_start(path);
    const auto rb = b.on_replay_start(path);
    EXPECT_EQ(ra.abort, rb.abort);
    const auto ca = a.on_control_exchange();
    const auto cb = b.on_control_exchange();
    EXPECT_EQ(ca.dropped, cb.dropped);
    EXPECT_EQ(ca.extra_delay, cb.extra_delay);
    EXPECT_EQ(a.on_topology_lookup(), b.on_topology_lookup());
    auto ma = synth_measurement();
    auto mb = synth_measurement();
    EXPECT_EQ(a.on_measurement_upload(path, ma),
              b.on_measurement_upload(path, mb));
    EXPECT_EQ(ma.end, mb.end);
    EXPECT_EQ(ma.tx_times.size(), mb.tx_times.size());
  }
  EXPECT_EQ(a.stats().total(), b.stats().total());
  EXPECT_GT(a.stats().total(), 0);
}

TEST(FaultInjector, PathFilterRespected) {
  // truncated-upload targets path 2 only.
  faults::FaultInjector inj(faults::shipped_plan("truncated-upload", 3));
  auto m1 = synth_measurement();
  auto m2 = synth_measurement();
  EXPECT_FALSE(inj.on_measurement_upload(1, m1));
  EXPECT_TRUE(inj.on_measurement_upload(2, m2));
  EXPECT_LT(m2.duration(), m1.duration());
  EXPECT_FALSE(inj.on_replay_start(1).abort);  // no abort spec in this plan
}

TEST(FaultInjector, CountBudgetLimitsFires) {
  faults::FaultPlan plan;
  plan.seed = 5;
  faults::FaultSpec s;
  s.kind = faults::FaultKind::TopologyUnavailable;
  s.probability = 1.0;
  s.count = 2;
  plan.faults.push_back(s);
  faults::FaultInjector inj(plan);
  EXPECT_TRUE(inj.on_topology_lookup());
  EXPECT_TRUE(inj.on_topology_lookup());
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(inj.on_topology_lookup());
  EXPECT_EQ(inj.stats()[faults::FaultKind::TopologyUnavailable], 2);
}

// --- Measurement mutations -----------------------------------------------

TEST(Mutations, TruncateShortensWindowConsistently) {
  auto m = synth_measurement();
  const Time original_end = m.end;
  faults::truncate_measurement(m, 0.4);
  EXPECT_LT(m.end, original_end);
  EXPECT_GT(m.end, m.start);
  for (Time t : m.tx_times) EXPECT_LE(t, m.end);
  for (Time t : m.loss_times) EXPECT_LE(t, m.end);
  for (const auto& d : m.deliveries) EXPECT_LE(d.at, m.end);
  EXPECT_FALSE(m.deliveries.empty());
}

TEST(Mutations, CorruptGarblesSamples) {
  auto m = synth_measurement();
  Rng rng(11);
  faults::corrupt_measurement(m, 0.5, rng);
  const auto bad = std::count_if(m.rtt_ms.begin(), m.rtt_ms.end(),
                                 [](double r) {
                                   return !std::isfinite(r) || r <= 0.0;
                                 });
  EXPECT_GT(bad, 0);
  EXPECT_LT(static_cast<std::size_t>(bad), m.rtt_ms.size());
}

TEST(Mutations, SkewShiftsEveryTimestamp) {
  auto m = synth_measurement();
  const auto reference = m;
  const Time skew = seconds(4);
  faults::skew_measurement(m, skew);
  EXPECT_EQ(m.start, reference.start + skew);
  EXPECT_EQ(m.end, reference.end + skew);
  ASSERT_EQ(m.tx_times.size(), reference.tx_times.size());
  EXPECT_EQ(m.tx_times.front(), reference.tx_times.front() + skew);
  EXPECT_EQ(m.deliveries.back().at, reference.deliveries.back().at + skew);
  // Durations (and thus throughput) are invariant under pure skew.
  EXPECT_EQ(m.duration(), reference.duration());
}

TEST(Mutations, TraceCutDropsTail) {
  Rng rng(13);
  const auto t = trace::make_tcp_app_trace(seconds(10), rng);
  const auto half = trace::cut(t, t.duration() / 2);
  EXPECT_LT(half.packets.size(), t.packets.size());
  EXPECT_GT(half.packets.size(), 0u);
  for (const auto& p : half.packets) EXPECT_LE(p.offset, t.duration() / 2);

  const auto few_bytes = trace::cut(t, t.duration(), 20000);
  EXPECT_LE(few_bytes.total_bytes(), 20000);
}

// --- Scenario / wild integration ----------------------------------------

TEST(ScenarioFaults, NullAndEmptyPlanAreBitIdentical) {
  auto cfg = experiments::default_scenario("Netflix", 4);
  cfg.replay_duration = seconds(20);
  cfg.fault_plan = nullptr;
  const auto clean = experiments::run_phase(cfg, experiments::Phase::SimOriginal);

  faults::FaultPlan empty;
  cfg.fault_plan = &empty;
  const auto with_empty =
      experiments::run_phase(cfg, experiments::Phase::SimOriginal);

  EXPECT_FALSE(clean.faulted);
  EXPECT_FALSE(with_empty.faulted);
  EXPECT_EQ(clean.p1.meas.tx_times, with_empty.p1.meas.tx_times);
  EXPECT_EQ(clean.p1.meas.rtt_ms, with_empty.p1.meas.rtt_ms);
  EXPECT_EQ(clean.p2.meas.delivered_bytes(),
            with_empty.p2.meas.delivered_bytes());
  EXPECT_EQ(clean.limiter_drops, with_empty.limiter_drops);
}

TEST(ScenarioFaults, HardAbortFlagsThePhase) {
  auto cfg = experiments::default_scenario("Netflix", 4);
  cfg.replay_duration = seconds(20);
  const auto plan = faults::shipped_plan("replay-abort-hard", chaos_seed());
  cfg.fault_plan = &plan;
  const auto rep = experiments::run_phase(cfg, experiments::Phase::SimOriginal);
  EXPECT_TRUE(rep.faulted);
  EXPECT_TRUE(rep.p1.aborted);
  EXPECT_TRUE(rep.p2.aborted);
  // The abort lands mid-replay, not at either edge, and still leaves a
  // partial measurement behind.
  EXPECT_GT(rep.p1.aborted_at, rep.p1.meas.start);
  EXPECT_LT(rep.p1.aborted_at, rep.p1.meas.end);
  EXPECT_GT(rep.p1.meas.delivered_bytes(), 0);
}

TEST(WildFaults, FaultedPhaseStillReports) {
  experiments::WildConfig cfg;
  cfg.isp = experiments::default_isp_models()[0];
  cfg.replay_duration = seconds(20);
  cfg.seed = chaos_seed();
  const auto plan = faults::shipped_plan("replay-abort-hard", chaos_seed());
  cfg.fault_plan = &plan;
  const auto rep =
      experiments::run_wild_phase(cfg, experiments::Phase::SimOriginal);
  EXPECT_TRUE(rep.faulted);
  EXPECT_GT(rep.p1.meas.tx_times.size(), 0u);
}

// --- Localizer degradation ----------------------------------------------

TEST(LocalizerFaults, SkewedPairIsTrimmedNotRejected) {
  core::LocalizationInput in;
  in.p0_original = synth_measurement();
  in.p0_inverted = synth_measurement();
  in.p1_original = synth_measurement();
  in.p2_original = synth_measurement();
  in.p1_inverted = synth_measurement();
  in.p2_inverted = synth_measurement();
  faults::skew_measurement(in.p2_original, seconds(4));
  faults::skew_measurement(in.p2_inverted, seconds(4));
  Rng rng(31);
  const auto res = core::localize(in, rng);
  // Identical original/inverted series: confirmation fails cleanly, and
  // the desync was absorbed (degraded), not fatal.
  EXPECT_TRUE(res.degraded);
  EXPECT_EQ(res.verdict, core::Verdict::NoEvidence);
}

// --- Full-session chaos sweep -------------------------------------------

class ChaosPlan : public ::testing::TestWithParam<std::string> {};

TEST_P(ChaosPlan, SessionSurvivesWithDefinedOutcome) {
  auto cfg = chaos_session_config();
  cfg.fault_plan = faults::shipped_plan(GetParam(), chaos_seed());
  topology::TopologyDatabase db;
  replay::seed_topology_database(cfg.scenario, db);
  const auto result = replay::run_session(cfg, db);

  EXPECT_STRNE(replay::to_string(result.outcome), "?");
  EXPECT_GT(result.finished_at, 0);
  ASSERT_FALSE(result.events.empty());
  for (std::size_t i = 1; i < result.events.size(); ++i) {
    EXPECT_GE(result.events[i].at, result.events[i - 1].at)
        << result.events[i].what;
  }
  if (result.outcome == replay::SessionOutcome::InconclusiveMeasurements) {
    EXPECT_NE(result.localization.inconclusive_reason,
              core::InconclusiveReason::None);
    EXPECT_FALSE(result.localization.status.ok());
  }
}

// The same crossing with the fluid background carrier: every shipped
// plan must keep a defined outcome when WEHEY_BG_MODE=fluid swaps the
// packet background for the fluid-rate aggregate.
TEST_P(ChaosPlan, SessionSurvivesWithDefinedOutcomeUnderFluidBg) {
  const char* saved = std::getenv("WEHEY_BG_MODE");
  const std::string restore = saved == nullptr ? "" : saved;
  ::setenv("WEHEY_BG_MODE", "fluid", 1);
  auto cfg = chaos_session_config();
  cfg.fault_plan = faults::shipped_plan(GetParam(), chaos_seed());
  topology::TopologyDatabase db;
  replay::seed_topology_database(cfg.scenario, db);
  obs::Recorder rec(/*metrics_on=*/true, /*trace_on=*/false);
  replay::SessionResult result;
  {
    obs::ScopedRecorder bind(&rec);
    result = replay::run_session(cfg, db);
  }
  if (saved == nullptr) {
    ::unsetenv("WEHEY_BG_MODE");
  } else {
    ::setenv("WEHEY_BG_MODE", restore.c_str(), 1);
  }

  // The session's own network carries the fluid aggregate: one source per
  // path, not per-flow packet background.
  const auto& counters = rec.metrics().counters();
  ASSERT_TRUE(counters.count("fluid.sources"));
  EXPECT_EQ(counters.at("fluid.sources").value(), 2u);
  EXPECT_STRNE(replay::to_string(result.outcome), "?");
  EXPECT_GT(result.finished_at, 0);
  ASSERT_FALSE(result.events.empty());
  for (std::size_t i = 1; i < result.events.size(); ++i) {
    EXPECT_GE(result.events[i].at, result.events[i - 1].at)
        << result.events[i].what;
  }
}

/// A session's timeline as text: outcome, each event's time and text, the
/// replay-attempt spans, the retry and fallback counters, finished_at, the
/// injection counts and the decision margin.
std::string timeline_text(const replay::SessionResult& r) {
  std::string text = replay::to_string(r.outcome);
  char line[128];
  for (const auto& ev : r.events) {
    std::snprintf(line, sizeof line, "\n%lld ",
                  static_cast<long long>(ev.at));
    text += line + ev.what;
  }
  for (const auto& span : r.replay_attempts) {
    std::snprintf(line, sizeof line, "\nattempt %lld-%lld",
                  static_cast<long long>(span.sim_start),
                  static_cast<long long>(span.sim_end));
    text += line;
  }
  std::snprintf(line, sizeof line,
                "\nretries %d control %d fallbacks %d finished %lld",
                r.replay_retries, r.control_retries, r.pair_fallbacks,
                static_cast<long long>(r.finished_at));
  text += line;
  for (const auto& [kind, count] : r.injection.by_kind()) {
    std::snprintf(line, sizeof line, "\n%s %d", kind, count);
    text += line;
  }
  std::snprintf(line, sizeof line, "\nmargin %d %.12g",
                r.localization.trace.has_verdict_margin ? 1 : 0,
                r.localization.trace.verdict_margin);
  return text + line;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

// Every shipped plan's session timeline at chaos seed 7 on the packet
// background, pinned by digest: the session's replay steps, retries and
// measurement reads may not move under a refactor.
TEST_P(ChaosPlan, SessionTimelineIsPinned) {
  const std::map<std::string, std::uint64_t> expected = {
      {"replay-abort", 0x40b23ecbeeb5a49bULL},
      {"replay-abort-hard", 0xb7fdad84fa7522efULL},
      {"control-flaky", 0x8b4074e9a7666c3dULL},
      {"control-dead", 0x9852c2cf301f605fULL},
      {"truncated-upload", 0xecdc277937a5b13aULL},
      {"corrupt-samples", 0x3df3fdc468761740ULL},
      {"clock-skew", 0x240c5fc9364db305ULL},
      {"topology-flap", 0xe93aad9eb0bf5406ULL},
      {"traceroute-damage", 0x1fc50853a3713fdfULL},
      {"kitchen-sink", 0xca0c6017a7e70b3aULL},
      {"event-storm", 0xbd5e3b54fb3fa0a3ULL},
  };
  auto cfg = chaos_session_config();
  cfg.scenario.bg_mode = trace::BackgroundMode::kPacket;
  cfg.fault_plan = faults::shipped_plan(GetParam(), 7);
  topology::TopologyDatabase db;
  replay::seed_topology_database(cfg.scenario, db);
  const std::string text = timeline_text(replay::run_session(cfg, db));
  ASSERT_TRUE(expected.count(GetParam())) << "no digest for this plan";
  const std::uint64_t digest = fnv1a(text);
  EXPECT_EQ(digest, expected.at(GetParam()))
      << std::hex << "digest 0x" << digest << "\n" << text;
}

INSTANTIATE_TEST_SUITE_P(
    AllShippedPlans, ChaosPlan,
    ::testing::ValuesIn(faults::shipped_plan_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(SessionFaults, ControlDeadGivesUpWithDefinedOutcome) {
  auto cfg = chaos_session_config();
  cfg.fault_plan = faults::shipped_plan("control-dead", chaos_seed());
  topology::TopologyDatabase db;
  replay::seed_topology_database(cfg.scenario, db);
  const auto result = replay::run_session(cfg, db);
  EXPECT_EQ(result.outcome, replay::SessionOutcome::ControlPlaneUnreachable);
  EXPECT_EQ(result.control_retries, replay::kMaxControlAttempts - 1);
}

TEST(SessionFaults, HardAbortExhaustsRetries) {
  auto cfg = chaos_session_config();
  cfg.fault_plan = faults::shipped_plan("replay-abort-hard", chaos_seed());
  topology::TopologyDatabase db;
  replay::seed_topology_database(cfg.scenario, db);
  const auto result = replay::run_session(cfg, db);
  // Probability 1.0: every attempt of the very first replay dies.
  EXPECT_EQ(result.outcome, replay::SessionOutcome::ReplayRetriesExhausted);
  EXPECT_EQ(result.replay_retries, replay::kMaxReplayAttempts - 1);
}

TEST(SessionFaults, TracerouteDamageDiscardsWithoutInvalidatingPair) {
  auto cfg = chaos_session_config();
  // Guaranteed damage on both gathering-step traceroutes.
  cfg.fault_plan = faults::shipped_plan("traceroute-damage", chaos_seed());
  for (auto& spec : cfg.fault_plan.faults) spec.probability = 1.0;
  topology::TopologyDatabase db;
  replay::seed_topology_database(cfg.scenario, db);
  const auto pairs_before = db.lookup("100.0.1.77").size();
  const auto result = replay::run_session(cfg, db);

  EXPECT_EQ(result.outcome, replay::SessionOutcome::TracerouteFailed);
  EXPECT_GT(result.injection[faults::FaultKind::TracerouteDrop], 0);
  EXPECT_GT(result.injection[faults::FaultKind::TracerouteGarble], 0);
  // The *query* failed, not the topology: the pair stays in the database
  // (unlike TopologyNoLongerSuitable, which invalidates it).
  EXPECT_EQ(db.lookup("100.0.1.77").size(), pairs_before);
}

TEST(SessionFaults, ClockSkewDegradesButCompletes) {
  auto cfg = chaos_session_config();
  cfg.fault_plan = faults::shipped_plan("clock-skew", chaos_seed());
  topology::TopologyDatabase db;
  replay::seed_topology_database(cfg.scenario, db);
  const auto result = replay::run_session(cfg, db);
  // Skewed uploads never abort replays or the control plane: the session
  // always reaches the analyses and produces a verdict-backed outcome.
  EXPECT_TRUE(
      result.outcome == replay::SessionOutcome::LocalizedWithinIsp ||
      result.outcome == replay::SessionOutcome::NoEvidence ||
      result.outcome == replay::SessionOutcome::InconclusiveMeasurements);
  EXPECT_TRUE(result.localization.degraded);
}

TEST(SessionFaults, ChaosSessionsAreReproducible) {
  auto cfg = chaos_session_config();
  cfg.fault_plan = faults::shipped_plan("kitchen-sink", chaos_seed());
  topology::TopologyDatabase db1, db2;
  replay::seed_topology_database(cfg.scenario, db1);
  replay::seed_topology_database(cfg.scenario, db2);
  const auto a = replay::run_session(cfg, db1);
  const auto b = replay::run_session(cfg, db2);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.replay_retries, b.replay_retries);
}

}  // namespace
}  // namespace wehey
