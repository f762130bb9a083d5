// Engine runtime telemetry (obs/runtime.hpp): the deterministic-count
// contract across thread widths, ThreadPool scheduler counters under a
// contended parallel_for, the wehey.runtime_report.v1 sidecar shape, and
// — the headline — run reports staying byte-identical with telemetry
// enabled vs disabled. Wall-clock fields are only ever range-checked;
// exact assertions are reserved for the count fields the contract names
// (tasks, trials, trials_supervised).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "experiments/params.hpp"
#include "experiments/wild.hpp"
#include "netsim/simulator.hpp"
#include "obs/aggregate.hpp"
#include "obs/inspect.hpp"
#include "obs/report.hpp"
#include "obs/runtime.hpp"
#include "parallel/supervisor.hpp"
#include "parallel/thread_pool.hpp"

namespace wehey {
namespace {

namespace rt = obs::runtime;

/// A little real work per trial so busy time registers on whoever runs it.
double spin(std::size_t i) {
  double acc = static_cast<double>(i);
  for (int k = 0; k < 20000; ++k) acc += 1.0 / static_cast<double>(k + 1);
  return acc;
}

/// Every test drives the process-global profiler: start each test from
/// zeroed counters and never leak an enabled profiler into the next test
/// (or into the other suites linked into this binary).
class RuntimeTelemetry : public ::testing::Test {
 protected:
  void SetUp() override {
    rt::set_enabled(true);
    rt::reset();
  }
  void TearDown() override { rt::set_enabled(false); }
};

// --- deterministic-count contract ----------------------------------------

TEST_F(RuntimeTelemetry, CountFieldsExactAcrossThreadWidths) {
  for (const unsigned threads : {1u, 8u}) {
    rt::reset();
    const auto out =
        parallel::parallel_map(24, [](std::size_t i) { return spin(i); },
                               threads);
    ASSERT_EQ(out.size(), 24u);
    const auto snap = rt::snapshot();
    // Counts are pure functions of the workload: exact at any width, on
    // the serial bypass (threads == 1) as well as the pooled path.
    EXPECT_EQ(snap.trials, 24u) << "threads=" << threads;
    EXPECT_EQ(snap.tasks, 24u) << "threads=" << threads;
    EXPECT_EQ(snap.trial_wall_ms.count, 24u) << "threads=" << threads;
    // Wall-clock fields: range checks only.
    EXPECT_GE(snap.wall_seconds, 0.0);
    EXPECT_GE(snap.trial_wall_ms.sum, 0.0);
    double busy = 0.0;
    for (const auto& w : snap.workers) busy += w.busy_ms;
    EXPECT_GT(busy, 0.0) << "threads=" << threads;
  }
}

TEST_F(RuntimeTelemetry, SupervisedTrialCountIsExact) {
  netsim::Simulator sim_a;
  netsim::Simulator sim_b;
  parallel::install_trial_budget(sim_a);
  parallel::install_trial_budget(sim_b);
  EXPECT_EQ(rt::snapshot().trials_supervised, 2u);
}

TEST_F(RuntimeTelemetry, DisabledHooksRecordNothing) {
  rt::set_enabled(false);
  parallel::parallel_map(8, [](std::size_t i) { return spin(i); }, 4);
  rt::set_enabled(true);
  const auto snap = rt::snapshot();
  EXPECT_EQ(snap.trials, 0u);
  EXPECT_EQ(snap.tasks, 0u);
  EXPECT_EQ(snap.jobs, 0u);
}

// --- scheduler counters under contention ---------------------------------

TEST_F(RuntimeTelemetry, ContendedParallelForDrivesSchedulerCounters) {
  parallel::ThreadPool pool(8);
  rt::reset();
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(64, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  ASSERT_EQ(ran.load(), 64u);
  const auto snap = rt::snapshot();
  EXPECT_EQ(snap.tasks, 64u);
  EXPECT_EQ(snap.jobs, 1u);
  // The queue-depth high-water mark is the largest pending-iteration count
  // ever submitted — exactly this job's n.
  EXPECT_EQ(snap.queue_depth_high_water, 64u);
  // The caller always waits for its workers to leave run_chunks once per
  // pooled job (possibly for ~0 ns, but it is counted).
  EXPECT_GE(snap.drain_waits, 1u);
  // 64 tasks x 1 ms across 8 contexts: workers certainly joined, so the
  // submit-to-start latency histogram saw at least one pickup.
  EXPECT_GE(snap.submit_to_start_us.count, 1u);
  double busy = 0.0;
  std::size_t worker_slots = 0;
  std::uint64_t chunk_tasks = 0;
  for (const auto& w : snap.workers) {
    busy += w.busy_ms;
    worker_slots += w.kind == rt::ThreadKind::kWorker;
    chunk_tasks += w.tasks;
  }
  EXPECT_GT(busy, 0.0);
  EXPECT_GE(worker_slots, 1u);
  EXPECT_EQ(chunk_tasks, 64u);  // per-worker task tallies sum to the job
  // Derived metrics stay in their mathematical ranges.
  EXPECT_GT(snap.parallel_efficiency, 0.0);
  EXPECT_LE(snap.parallel_efficiency, 1.0 + 1e-9);
  EXPECT_GE(snap.worker_imbalance, 1.0 - 1e-9);
  EXPECT_GE(snap.wait_fraction, 0.0);
  EXPECT_LE(snap.wait_fraction, 1.0 + 1e-9);
}

// --- sidecar report shape -------------------------------------------------

TEST_F(RuntimeTelemetry, ReportJsonMatchesSchemaShape) {
  parallel::parallel_map(8, [](std::size_t i) { return spin(i); }, 4);
  const auto snap = rt::snapshot();
  const std::string json = rt::runtime_report_json(snap, "unit");
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(json, doc, &error)) << error;
  ASSERT_TRUE(obs::is_runtime_report(doc));
  const obs::JsonValue* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, obs::kRuntimeReportSchema);
  // Top-level sections of the layout documented in obs/runtime.hpp.
  for (const char* key :
       {"run", "wall_seconds", "threads", "workers", "scheduler", "trials",
        "process"}) {
    EXPECT_NE(doc.find(key), nullptr) << key;
  }
  const obs::JsonValue* threads = doc.find("threads");
  ASSERT_NE(threads, nullptr);
  for (const char* key :
       {"configured", "hardware", "contexts", "oversubscribed"}) {
    EXPECT_NE(threads->find(key), nullptr) << key;
  }
  EXPECT_GE(threads->find("configured")->num_or(0.0), 1.0);
  EXPECT_GE(threads->find("hardware")->num_or(0.0), 1.0);
  const obs::JsonValue* sched = doc.find("scheduler");
  ASSERT_NE(sched, nullptr);
  for (const char* key :
       {"jobs", "tasks", "queue_depth_high_water", "drain_waits",
        "parallel_efficiency", "worker_imbalance", "wait_fraction",
        "idle_fraction", "submit_to_start_us"}) {
    EXPECT_NE(sched->find(key), nullptr) << key;
  }
  EXPECT_EQ(sched->find("tasks")->num_or(-1.0), 8.0);
  const obs::JsonValue* trials = doc.find("trials");
  ASSERT_NE(trials, nullptr);
  EXPECT_EQ(trials->find("count")->num_or(-1.0), 8.0);
  ASSERT_NE(trials->find("wall_ms"), nullptr);
  for (const char* key : {"lo", "hi", "count", "sum", "min", "max", "bins"}) {
    EXPECT_NE(trials->find("wall_ms")->find(key), nullptr) << key;
  }
  // Wall-clock values: range checks only.
  EXPECT_GE(doc.find("wall_seconds")->num_or(-1.0), 0.0);
  // The sidecar must never carry sections of the deterministic reports:
  // wall-clock data would leak into (or pose as) the byte-identical
  // report contract.
  for (const char* key :
       {"decision", "ground_truth", "audit", "cells", "stages"}) {
    EXPECT_EQ(doc.find(key), nullptr) << key;
  }
}

TEST_F(RuntimeTelemetry, SidecarFromEnvAgreesOnCountsAcrossWidths) {
  const std::string dir = ::testing::TempDir();
  obs::JsonValue docs[2];
  const unsigned widths[2] = {1, 8};
  for (int w = 0; w < 2; ++w) {
    const std::string path =
        dir + "wehey_runtime_w" + std::to_string(widths[w]) + ".json";
    ::setenv("WEHEY_RUNTIME_REPORT", path.c_str(), 1);
    rt::set_enabled(false);
    EXPECT_TRUE(rt::enable_from_env());  // env path present => enabled
    rt::reset();
    parallel::parallel_map(16, [](std::size_t i) { return spin(i); },
                           widths[w]);
    EXPECT_TRUE(rt::write_runtime_report_from_env("unit_env"));
    ::unsetenv("WEHEY_RUNTIME_REPORT");
    std::string text;
    ASSERT_TRUE(obs::read_file(path, text)) << path;
    std::string error;
    ASSERT_TRUE(obs::json_parse(text, docs[w], &error)) << error;
    std::remove(path.c_str());
  }
  for (const auto& doc : docs) {
    ASSERT_TRUE(obs::is_runtime_report(doc));
    const obs::JsonValue* sched = doc.find("scheduler");
    const obs::JsonValue* trials = doc.find("trials");
    ASSERT_NE(sched, nullptr);
    ASSERT_NE(trials, nullptr);
    // The deterministic counts agree at width 1 and width 8.
    EXPECT_EQ(sched->find("tasks")->num_or(-1.0), 16.0);
    EXPECT_EQ(trials->find("count")->num_or(-1.0), 16.0);
  }
}

TEST_F(RuntimeTelemetry, EnvPathOffValuesDisableTheSidecar) {
  ::setenv("WEHEY_RUNTIME_REPORT", "0", 1);
  EXPECT_TRUE(rt::runtime_report_path_from_env().empty());
  ::setenv("WEHEY_RUNTIME_REPORT", "", 1);
  EXPECT_TRUE(rt::runtime_report_path_from_env().empty());
  ::unsetenv("WEHEY_RUNTIME_REPORT");
  EXPECT_TRUE(rt::runtime_report_path_from_env().empty());
}

// --- byte identity of the deterministic reports ---------------------------

TEST_F(RuntimeTelemetry, RunReportsByteIdenticalTelemetryOnVsOff) {
  experiments::WildConfig cfg;
  cfg.isp = experiments::default_isp_models()[0];
  cfg.replay_duration = seconds(8);
  cfg.seed = 3;
  const std::vector<double> t_diff = {0.05, -0.08, 0.11, -0.03};

  rt::set_enabled(false);
  const auto off =
      experiments::run_wild_test_reported(cfg, t_diff, false, "telemetry");
  rt::set_enabled(true);
  rt::reset();
  const auto on =
      experiments::run_wild_test_reported(cfg, t_diff, false, "telemetry");

  // The profiler saw the run...
  EXPECT_GT(rt::snapshot().trials, 0u);
  // ...but the deterministic report is untouched, byte for byte.
  EXPECT_EQ(off.report.to_json(&off.metrics), on.report.to_json(&on.metrics));
}

TEST_F(RuntimeTelemetry, SweepAggregateByteIdenticalTelemetryOnVsOff) {
  experiments::WildConfig cfg;
  cfg.isp = experiments::default_isp_models()[0];
  cfg.replay_duration = seconds(8);
  cfg.seed = 3;
  const std::vector<double> t_diff = {0.05, -0.08, 0.11, -0.03};
  std::string sweep_json[2];
  for (int pass = 0; pass < 2; ++pass) {
    rt::set_enabled(pass == 1);
    obs::SweepAggregator agg("telemetry_sweep");
    const auto res =
        experiments::run_wild_test_reported(cfg, t_diff, false, "telemetry");
    agg.add_run(res.report, &res.metrics);
    sweep_json[pass] = agg.to_json();
  }
  rt::set_enabled(true);  // hand TearDown the state it expects
  EXPECT_EQ(sweep_json[0], sweep_json[1]);
}

// --- progress meter -------------------------------------------------------

TEST(ProgressMeterTest, ModeParsesFromEnv) {
  ::setenv("WEHEY_PROGRESS", "plain", 1);
  EXPECT_EQ(obs::ProgressMeter("unit").mode(),
            obs::ProgressMeter::Mode::kPlain);
  // "tty" honors the terminal: carriage-return redraws only when stderr
  // actually is one, otherwise it auto-downgrades to plain so CI logs
  // don't fill with \r frames. Under ctest stderr is a pipe, so this
  // normally exercises the downgrade path.
  ::setenv("WEHEY_PROGRESS", "tty", 1);
  EXPECT_EQ(obs::ProgressMeter("unit").mode(),
            ::isatty(::fileno(stderr)) != 0 ? obs::ProgressMeter::Mode::kTty
                                            : obs::ProgressMeter::Mode::kPlain);
  ::setenv("WEHEY_PROGRESS", "off", 1);
  EXPECT_EQ(obs::ProgressMeter("unit").mode(), obs::ProgressMeter::Mode::kOff);
  ::unsetenv("WEHEY_PROGRESS");
  EXPECT_EQ(obs::ProgressMeter("unit").mode(), obs::ProgressMeter::Mode::kOff);
}

TEST(ProgressMeterTest, TalliesResumedQuarantinedAndKnifeEdge) {
  ::unsetenv("WEHEY_PROGRESS");  // mode off: nothing printed until finish()
  obs::ProgressMeter meter("unit_sweep");
  meter.expect(4);
  meter.note_run("completed", /*has_margin=*/false, 0.0, /*resumed=*/true);
  meter.note_run("completed", /*has_margin=*/true, /*margin=*/0.5);
  meter.note_run(obs::kBudgetExhaustedVerdict, false, 0.0);
  // |margin| below the default knife-edge threshold (0.05).
  meter.note_run("completed", true, -0.01);
  EXPECT_EQ(meter.completed(), 4u);
  EXPECT_EQ(meter.resumed(), 1u);
  EXPECT_EQ(meter.quarantined(), 1u);
  EXPECT_EQ(meter.knife_edge(), 1u);
  meter.finish();  // the summary line prints to stderr even in mode off
}

TEST(ProgressMeterTest, KnifeEdgeThresholdIsTheSweepConstant) {
  obs::ProgressMeter meter("unit_margin");
  const double edge = obs::kKnifeEdgeMargin;
  meter.note_run("completed", true, 0.5 * edge);   // under the threshold
  meter.note_run("completed", true, -0.5 * edge);  // by magnitude
  meter.note_run("completed", true, edge);         // at it: decided
  meter.note_run("completed", false, 0.0);  // no margin: never knife-edge
  EXPECT_EQ(meter.knife_edge(), 2u);
}

}  // namespace
}  // namespace wehey
