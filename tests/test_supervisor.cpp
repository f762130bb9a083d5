// Resilient sweep execution: per-trial budgets (the supervisor), the
// event-storm livelock plan, quarantine tallies, and checkpoint/resume
// byte identity.
//
// The headline contract: a sweep killed mid-cell and resumed from its
// checkpoint journal produces a sweep report and per-run reports
// byte-identical to an uninterrupted run's, across WEHEY_THREADS —
// obs::ObservedSweep reads completed runs back with RunReport::from_json,
// the exact inverse of to_json, and absorbs them in run-index order
// through the same path as a live run.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "experiments/params.hpp"
#include "experiments/wild.hpp"
#include "faults/plan.hpp"
#include "netsim/simulator.hpp"
#include "obs/aggregate.hpp"
#include "obs/checkpoint.hpp"
#include "obs/inspect.hpp"
#include "obs/report.hpp"
#include "obs/sweep.hpp"
#include "parallel/supervisor.hpp"
#include "parallel/thread_pool.hpp"
#include "replay/session.hpp"
#include "topology/database.hpp"

namespace wehey {
namespace {

// --- TrialBudget mechanics -----------------------------------------------

/// A self-perpetuating timer: the minimal runaway trial.
void arm_livelock(netsim::Simulator& sim, Time interval) {
  sim.schedule(interval, [&sim, interval] {
    sim.reschedule_current(interval);
  });
}

TEST(TrialBudget, EventCeilingStopsAndLatches) {
  netsim::Simulator sim;
  netsim::TrialBudget budget;
  budget.max_events = 100;
  sim.set_trial_budget(budget);
  arm_livelock(sim, microseconds(1));
  sim.run(seconds(1));
  EXPECT_TRUE(sim.budget_exhausted());
  EXPECT_STREQ(sim.budget_reason(), "events");
  EXPECT_EQ(sim.budget_events_dispatched(), 100u);
  // The clock is NOT fast-forwarded to the caller's horizon: the trial
  // ended where the budget cut it.
  EXPECT_LT(sim.now(), seconds(1));
  // Once exhausted, run() is a no-op — callers unwind without spinning.
  const Time stopped_at = sim.now();
  sim.run(seconds(2));
  EXPECT_EQ(sim.now(), stopped_at);
  EXPECT_EQ(sim.budget_events_dispatched(), 100u);
}

TEST(TrialBudget, SimTimeCeilingReportsSimTime) {
  netsim::Simulator sim;
  netsim::TrialBudget budget;
  budget.max_sim_time = milliseconds(10);
  sim.set_trial_budget(budget);
  arm_livelock(sim, milliseconds(1));
  sim.run(seconds(1));
  EXPECT_TRUE(sim.budget_exhausted());
  EXPECT_STREQ(sim.budget_reason(), "sim_time");
  EXPECT_LE(sim.now(), milliseconds(10));
}

TEST(TrialBudget, GenerousBudgetIsABystander) {
  // A budget that never bites must not change the run's outcome.
  netsim::Simulator sim;
  netsim::TrialBudget budget;
  budget.max_events = 1'000'000;
  budget.max_sim_time = seconds(100);
  sim.set_trial_budget(budget);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(milliseconds(i), [&fired] { ++fired; });
  }
  sim.run(seconds(1));
  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(sim.budget_exhausted());
  EXPECT_STREQ(sim.budget_reason(), "");
  EXPECT_EQ(sim.now(), seconds(1));  // completed runs reach the horizon
}

TEST(TrialBudget, EnvKnobsParsedPerCall) {
  ::setenv("WEHEY_TRIAL_MAX_EVENTS", "123", 1);
  ::setenv("WEHEY_TRIAL_MAX_SIM_MS", "456", 1);
  auto budget = parallel::trial_budget_from_env();
  EXPECT_EQ(budget.max_events, 123u);
  EXPECT_EQ(budget.max_sim_time, milliseconds(456));
  // 0 disables a ceiling.
  ::setenv("WEHEY_TRIAL_MAX_EVENTS", "0", 1);
  budget = parallel::trial_budget_from_env();
  EXPECT_EQ(budget.max_events, 0u);
  EXPECT_TRUE(budget.limited());  // sim-time ceiling still on
  // Unset -> shipped defaults (20M events, one sim hour).
  ::unsetenv("WEHEY_TRIAL_MAX_EVENTS");
  ::unsetenv("WEHEY_TRIAL_MAX_SIM_MS");
  budget = parallel::trial_budget_from_env();
  EXPECT_EQ(budget.max_events, 20'000'000u);
  EXPECT_EQ(budget.max_sim_time, milliseconds(3'600'000));
  EXPECT_TRUE(budget.limited());
}

// --- Event-storm livelock under the default budget -----------------------

TEST(Supervisor, EventStormSessionExhaustsDefaultBudget) {
  // No env knobs: the shipped defaults themselves must terminate the
  // retransmit livelock with a machine-readable outcome.
  ::unsetenv("WEHEY_TRIAL_MAX_EVENTS");
  ::unsetenv("WEHEY_TRIAL_MAX_SIM_MS");
  replay::SessionConfig cfg;
  cfg.scenario = experiments::default_scenario("Netflix", 2);
  cfg.scenario.replay_duration = seconds(30);
  cfg.t_diff_history = {0.06, -0.09, 0.12, -0.04, 0.08, -0.11,
                        0.05, -0.07, 0.10, -0.03, 0.09, -0.06};
  cfg.fault_plan = faults::shipped_plan("event-storm", 1);
  topology::TopologyDatabase db;
  replay::seed_topology_database(cfg.scenario, db);
  const auto result = replay::run_session(cfg, db);
  EXPECT_EQ(result.outcome, replay::SessionOutcome::BudgetExhausted);
  EXPECT_EQ(result.budget_reason, "events");
  EXPECT_STREQ(replay::to_string(result.outcome),
               obs::kBudgetExhaustedVerdict);
  // The RunReport carries the verdict and the machine-readable reason.
  const auto report = replay::make_run_report(cfg, result, "storm");
  EXPECT_EQ(report.verdict, obs::kBudgetExhaustedVerdict);
  EXPECT_EQ(report.reason, "budget:events");
}

/// A budget-stopped test, whichever runner ran it, reports the budget
/// outcome and never reached localize().
void expect_budget_stopped_report(const obs::RunReport& report) {
  EXPECT_EQ(report.verdict, obs::kBudgetExhaustedVerdict);
  EXPECT_EQ(report.reason, "budget:events");
  EXPECT_FALSE(report.decision.evaluated);
  EXPECT_EQ(report.audit.classification, "skipped");
  EXPECT_EQ(report.audit.mismatch_reason, "budget-exhausted");
}

TEST(Supervisor, TightEventBudgetEndsWildTestWithoutLocalization) {
  ::setenv("WEHEY_TRIAL_MAX_EVENTS", "10000", 1);
  const std::vector<double> t_diff = {0.05, -0.08, 0.11, -0.03};
  experiments::WildConfig wild;
  wild.isp = experiments::default_isp_models()[0];
  wild.replay_duration = seconds(8);
  wild.seed = 3;
  const auto res =
      experiments::run_wild_test_reported(wild, t_diff, false, "tight");
  // The §6 runner goes through the same budget path.
  auto scenario = experiments::default_scenario("Netflix", 3);
  scenario.replay_duration = seconds(8);
  const auto full =
      experiments::run_full_experiment_reported(scenario, t_diff, "tight");
  ::unsetenv("WEHEY_TRIAL_MAX_EVENTS");

  EXPECT_TRUE(res.outcome.budget_exhausted);
  EXPECT_EQ(res.outcome.budget_reason, "events");
  EXPECT_FALSE(res.outcome.localized);  // analyses skipped, inputs stumps
  expect_budget_stopped_report(res.report);
  expect_budget_stopped_report(full.report);
}

// --- Quarantine tallies --------------------------------------------------

obs::RunReport small_report(const std::string& run, const std::string& cell,
                            const std::string& verdict,
                            const std::string& reason) {
  obs::RunReport r;
  r.run = run;
  r.cell = cell;
  r.seed = 7;
  r.verdict = verdict;
  r.reason = reason;
  r.values["x"] = 1.5;
  return r;
}

TEST(Quarantine, RepeatedBudgetExhaustionQuarantinesTheCell) {
  obs::SweepAggregator agg("q");
  // "bad": two poisoned runs -> quarantined (threshold 2). "flaky": one
  // poisoned run -> listed nowhere. "ok": clean.
  agg.add_run(small_report("q.bad.r0", "bad", obs::kBudgetExhaustedVerdict,
                           "budget:events"),
              nullptr);
  agg.add_run(small_report("q.bad.r1", "bad", obs::kBudgetExhaustedVerdict,
                           "budget:sim_time"),
              nullptr);
  agg.add_run(small_report("q.flaky.r0", "flaky",
                           obs::kBudgetExhaustedVerdict, "budget:events"),
              nullptr);
  agg.add_run(small_report("q.flaky.r1", "flaky", "no evidence", ""),
              nullptr);
  agg.add_run(small_report("q.ok.r0", "ok", "no evidence", ""), nullptr);
  const std::string json = agg.to_json();
  EXPECT_NE(json.find("\"quarantine\""), std::string::npos);
  EXPECT_NE(json.find("\"threshold\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"bad\": {\"poisoned_runs\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"budget:sim_time\": 1"), std::string::npos);
  // Below-threshold and clean cells stay out of the quarantine block.
  EXPECT_EQ(json.find("\"flaky\": {\"poisoned_runs\""), std::string::npos);
  EXPECT_EQ(json.find("\"ok\": {\"poisoned_runs\""), std::string::npos);
  // The sweep itself keeps going: all five runs are tallied.
  EXPECT_EQ(agg.runs(), 5u);

  // Runs read back from their serialized form (checkpoint resume,
  // wehey_cli merge) must reconstruct the identical quarantine state.
  obs::SweepAggregator offline("q");
  std::vector<obs::RunReport> reports = {
      small_report("q.bad.r0", "bad", obs::kBudgetExhaustedVerdict,
                   "budget:events"),
      small_report("q.bad.r1", "bad", obs::kBudgetExhaustedVerdict,
                   "budget:sim_time"),
      small_report("q.flaky.r0", "flaky", obs::kBudgetExhaustedVerdict,
                   "budget:events"),
      small_report("q.flaky.r1", "flaky", "no evidence", ""),
      small_report("q.ok.r0", "ok", "no evidence", ""),
  };
  for (const auto& r : reports) {
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::json_parse(r.to_json(nullptr), doc, &error)) << error;
    obs::RunReport read;
    obs::MetricsRegistry metrics;
    ASSERT_TRUE(obs::RunReport::from_json(doc, read, metrics, &error))
        << error;
    offline.add_run(read, &metrics);
  }
  EXPECT_EQ(offline.to_json(), json);
}

// --- Checkpoint journal mechanics ----------------------------------------

obs::CheckpointEntry make_entry(const std::string& run,
                                const std::string& cell, std::uint64_t index,
                                const std::string& report_json) {
  obs::CheckpointEntry entry;
  entry.run = run;
  entry.cell = cell;
  entry.seed = 11;
  entry.index = index;
  entry.report_json = report_json;
  return entry;
}

TEST(Checkpoint, MissingFileIsAnEmptyResume) {
  obs::CheckpointJournal journal;
  std::string error;
  EXPECT_TRUE(obs::CheckpointJournal::load(
      ::testing::TempDir() + "/does_not_exist.jsonl", journal, &error));
  EXPECT_TRUE(journal.empty());
  EXPECT_EQ(journal.find("anything"), nullptr);
}

TEST(Checkpoint, RoundTripPreservesReportBytesExactly) {
  const std::string path = ::testing::TempDir() + "/roundtrip.jsonl";
  std::remove(path.c_str());
  // Escaping stress: quotes, backslashes, newlines, tabs — everything a
  // serialized RunReport contains.
  const std::string report =
      "{\n  \"schema\": \"wehey.run_report.v6\",\n  \"run\": \"a \\\"b\\\" "
      "c\\\\d\",\n\t\"x\": 1.5\n}\n";
  {
    obs::CheckpointWriter writer;
    ASSERT_TRUE(writer.open(path, "rt"));
    writer.append(make_entry("r0", "cell/one", 0, report));
  }
  obs::CheckpointJournal journal;
  std::string error;
  ASSERT_TRUE(obs::CheckpointJournal::load(path, journal, &error)) << error;
  ASSERT_EQ(journal.size(), 1u);
  const obs::CheckpointEntry* entry = journal.find("r0");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->report_json, report);
  EXPECT_EQ(entry->cell, "cell/one");
  EXPECT_EQ(entry->seed, 11u);
  EXPECT_EQ(journal.sweep(), "rt");
}

TEST(Checkpoint, TornTrailingLineIsDroppedAndTrimmedOnReopen) {
  const std::string path = ::testing::TempDir() + "/torn.jsonl";
  std::remove(path.c_str());
  {
    obs::CheckpointWriter writer;
    ASSERT_TRUE(writer.open(path, "t"));
    writer.append(make_entry("r0", "c", 0, "{\"a\": 1}"));
  }
  // Simulate a kill -9 mid-append: a partial line, no trailing newline.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = "{\"schema\": \"wehey.sweep_checkpoint.v1\", \"ru";
    std::fwrite(torn, 1, sizeof(torn) - 1, f);
    std::fclose(f);
  }
  obs::CheckpointJournal journal;
  std::string error;
  ASSERT_TRUE(obs::CheckpointJournal::load(path, journal, &error)) << error;
  EXPECT_EQ(journal.size(), 1u);  // the torn line is dropped, not fatal
  // Reopening for append trims the fragment, so the next line starts
  // clean and a second resume sees both runs.
  {
    obs::CheckpointWriter writer;
    ASSERT_TRUE(writer.open(path, "t"));
    writer.append(make_entry("r1", "c", 1, "{\"a\": 2}"));
  }
  ASSERT_TRUE(obs::CheckpointJournal::load(path, journal, &error)) << error;
  EXPECT_EQ(journal.size(), 2u);
  ASSERT_NE(journal.find("r1"), nullptr);
  EXPECT_EQ(journal.find("r1")->report_json, "{\"a\": 2}");
}

TEST(Checkpoint, MidFileCorruptionFailsLoudly) {
  const std::string path = ::testing::TempDir() + "/corrupt.jsonl";
  // An unparseable line, and a parseable one whose seed is out of range.
  const std::string bad_seed =
      std::string("{\"schema\": \"") + obs::kSweepCheckpointSchema +
      "\", \"run\": \"r0\", \"seed\": -1, \"report\": \"{}\"}\n";
  for (const std::string& bad : {std::string("not json at all\n"), bad_seed}) {
    std::remove(path.c_str());
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      std::fputs(bad.c_str(), f);
      std::fclose(f);
    }
    {
      obs::CheckpointWriter writer;
      // open() only trims a missing trailing newline; the bad line stays.
      ASSERT_TRUE(writer.open(path, "c"));
      writer.append(make_entry("r1", "c", 1, "{\"a\": 1}"));
    }
    obs::CheckpointJournal journal;
    std::string error;
    EXPECT_FALSE(obs::CheckpointJournal::load(path, journal, &error)) << bad;
    EXPECT_NE(error.find(":1: malformed checkpoint line"), std::string::npos)
        << error;
  }
}

TEST(Checkpoint, DuplicateRunIdsKeepTheLastEntry) {
  const std::string path = ::testing::TempDir() + "/dup.jsonl";
  std::remove(path.c_str());
  {
    obs::CheckpointWriter writer;
    ASSERT_TRUE(writer.open(path, "d"));
    writer.append(make_entry("r0", "c", 0, "{\"a\": 1}"));
    writer.append(make_entry("r0", "c", 0, "{\"a\": 2}"));
  }
  obs::CheckpointJournal journal;
  std::string error;
  ASSERT_TRUE(obs::CheckpointJournal::load(path, journal, &error)) << error;
  EXPECT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal.find("r0")->report_json, "{\"a\": 2}");
}

// --- Kill-and-resume byte identity ---------------------------------------

struct SweepFixture {
  std::vector<std::string> run_ids;
  std::vector<experiments::WildConfig> cfgs;
  std::vector<std::vector<double>> t_diffs;  ///< one per run (shared per ISP)
};

/// Two ISP cells, two wild runs each — small enough for a test, real
/// enough to exercise the full report pipeline.
SweepFixture sweep_fixture() {
  SweepFixture fx;
  const auto isps = experiments::default_isp_models();
  for (std::size_t i = 0; i < 4; ++i) {
    experiments::WildConfig base;
    base.isp = isps[i / 2];
    base.replay_duration = seconds(8);
    base.seed = 1;
    if (fx.t_diffs.size() <= i) fx.t_diffs.resize(i + 1);
    // T_diff is a deterministic function of the base config, shared by
    // the cell's runs — exactly the Table-1 bench's structure.
    if (i % 2 == 0) {
      fx.t_diffs[i] = experiments::build_wild_t_diff(base, 3);
    } else {
      fx.t_diffs[i] = fx.t_diffs[i - 1];
    }
    experiments::WildConfig cfg = base;
    cfg.seed = 1000 + i * 17;
    fx.cfgs.push_back(cfg);
    char run_id[48];
    std::snprintf(run_id, sizeof(run_id), "ckpt.%s.r%02zu",
                  base.isp.name.c_str(), i);
    fx.run_ids.emplace_back(run_id);
  }
  return fx;
}

experiments::WildTestResult run_one(const SweepFixture& fx, std::size_t i) {
  return experiments::run_wild_test_reported(fx.cfgs[i], fx.t_diffs[i],
                                             /*sanity_check=*/false,
                                             fx.run_ids[i]);
}

/// One pass of the fixture's sweep through obs::ObservedSweep, the driver
/// of every grid bench: journal to `journal` (resuming what it already
/// holds) and write the sweep and per-run reports into `dir`. Returns how
/// many runs came from the journal.
std::size_t observed_sweep(const SweepFixture& fx, const std::string& dir,
                           const std::string& journal, unsigned threads) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ::setenv("WEHEY_REPORT_DIR", dir.c_str(), 1);
  std::size_t resumed = 0;
  {
    obs::ObservedSweep sweep("ckpt");
    std::string error;
    EXPECT_TRUE(sweep.checkpoint(journal, /*resume=*/true, &error)) << error;
    const auto results = parallel::parallel_map(
        fx.run_ids.size(),
        [&](std::size_t i) {
          return sweep.completed(fx.run_ids[i])
                     ? experiments::WildTestResult{}
                     : run_one(fx, i);
        },
        threads);
    for (std::size_t i = 0; i < fx.run_ids.size(); ++i) {
      resumed += sweep.completed(fx.run_ids[i]);
      sweep.absorb(fx.run_ids[i], results[i].report, &results[i].metrics);
    }
  }
  ::unsetenv("WEHEY_REPORT_DIR");
  return resumed;
}

TEST(CheckpointResume, KilledSweepResumesByteIdenticalAcrossThreads) {
  const SweepFixture fx = sweep_fixture();
  const std::string root = ::testing::TempDir() + "/resume";
  const std::string journal = root + ".jsonl";
  std::remove(journal.c_str());
  ASSERT_EQ(observed_sweep(fx, root + "_ref", journal, 1), 0u);

  // Kill mid-cell: keep the first ISP cell's two runs plus a torn
  // fragment of the second cell's first line.
  std::string text;
  ASSERT_TRUE(obs::read_file(journal, text));
  std::size_t cut = 0;
  for (int lines = 0; lines < 2; ++lines) {
    cut = text.find('\n', cut) + 1;
  }
  const std::string truncated =
      text.substr(0, cut) + text.substr(cut, 80);  // torn third line

  // Resume twice, recomputing the lost runs on 1 and on 8 threads. Both
  // must reproduce the uninterrupted sweep and per-run report bytes.
  for (const unsigned threads : {1u, 8u}) {
    const std::string killed = root + "_killed.jsonl";
    ASSERT_TRUE(obs::write_report_file(killed, truncated));
    const std::string dir = root + "_t" + std::to_string(threads);
    // The torn third line was dropped.
    EXPECT_EQ(observed_sweep(fx, dir, killed, threads), 2u);
    std::vector<std::string> files = {"ckpt.sweep.json"};
    for (const auto& id : fx.run_ids) files.push_back(id + ".report.json");
    for (const auto& file : files) {
      std::string want, got;
      ASSERT_TRUE(obs::read_file(root + "_ref/" + file, want)) << file;
      ASSERT_TRUE(obs::read_file(dir + "/" + file, got)) << file;
      EXPECT_EQ(got, want) << file << " diverged after a resume with threads="
                           << threads;
    }
    // The two journaled runs' files hold the journaled bytes.
    obs::CheckpointJournal resumed;
    ASSERT_TRUE(obs::CheckpointJournal::load(killed, resumed));
    for (std::size_t i = 0; i < 2; ++i) {
      const obs::CheckpointEntry* entry = resumed.find(fx.run_ids[i]);
      ASSERT_NE(entry, nullptr) << fx.run_ids[i];
      std::string got;
      ASSERT_TRUE(
          obs::read_file(dir + "/" + fx.run_ids[i] + ".report.json", got));
      EXPECT_EQ(got, entry->report_json) << fx.run_ids[i];
    }
  }
}

}  // namespace
}  // namespace wehey
