// The observability layer: deterministic metrics, the sim-time tracer,
// and the RunReport schema. The load-bearing property under test is the
// determinism contract — merged metrics, timelines and reports must be
// byte-identical regardless of how many threads executed the trials.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/localizer.hpp"
#include "experiments/params.hpp"
#include "experiments/scenario.hpp"
#include "faults/plan.hpp"
#include "obs/inspect.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"
#include "parallel/thread_pool.hpp"
#include "replay/session.hpp"

namespace wehey::obs {
namespace {

TEST(Metrics, CounterGaugeHistogramBasics) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  Counter& c = m.counter("events");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Find-or-create returns the same node.
  EXPECT_EQ(&m.counter("events"), &c);

  Gauge& g = m.gauge("depth");
  g.set(3.0);
  g.set(9.0);
  g.set(5.0);
  EXPECT_TRUE(g.seen());
  EXPECT_DOUBLE_EQ(g.last(), 5.0);
  EXPECT_DOUBLE_EQ(g.min(), 3.0);
  EXPECT_DOUBLE_EQ(g.max(), 9.0);

  Histogram& h = m.histogram("latency", 0.0, 10.0, 5);
  h.observe(-1.0);   // underflow
  h.observe(0.5);    // bin 0
  h.observe(9.99);   // bin 4
  h.observe(25.0);   // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 25.0);
  ASSERT_EQ(h.bins().size(), 7u);  // under + 5 + over
  EXPECT_EQ(h.bins().front(), 1u);
  EXPECT_EQ(h.bins()[1], 1u);
  EXPECT_EQ(h.bins()[5], 1u);
  EXPECT_EQ(h.bins().back(), 1u);
  EXPECT_EQ(m.size(), 3u);
}

TEST(Metrics, MergeSumsCountersAndCombinesWatermarks) {
  MetricsRegistry a;
  a.counter("shared").inc(10);
  a.counter("only_a").inc(1);
  a.gauge("depth").set(4.0);
  a.histogram("lat", 0.0, 10.0, 2).observe(1.0);

  MetricsRegistry b;
  b.counter("shared").inc(5);
  b.counter("only_b").inc(2);
  b.gauge("depth").set(7.0);
  b.histogram("lat", 0.0, 10.0, 2).observe(9.0);

  a.merge(b);
  EXPECT_EQ(a.counter("shared").value(), 15u);
  EXPECT_EQ(a.counter("only_a").value(), 1u);
  EXPECT_EQ(a.counter("only_b").value(), 2u);
  EXPECT_DOUBLE_EQ(a.gauge("depth").min(), 4.0);
  EXPECT_DOUBLE_EQ(a.gauge("depth").max(), 7.0);
  EXPECT_DOUBLE_EQ(a.gauge("depth").last(), 7.0);  // adopts other's last
  const Histogram& h = a.histogram("lat", 0.0, 10.0, 2);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bins()[1], 1u);  // 1.0 -> first bin
  EXPECT_EQ(h.bins()[2], 1u);  // 9.0 -> second bin
}

TEST(Metrics, JsonIsSortedAndStable) {
  MetricsRegistry m;
  m.counter("zebra").inc(3);
  m.counter("alpha").inc(7);
  m.gauge("g").set(2.5);
  const std::string json = m.to_json();
  // Map storage means sorted key order — "alpha" before "zebra".
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zebra\""));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  // Two snapshots of the same registry are byte-identical.
  EXPECT_EQ(json, m.to_json());
}

TEST(Metrics, JsonNumberAvoidsTrailingZeros) {
  EXPECT_EQ(json_number(17.0), "17");
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(2.5), "2.5");
}

TEST(Metrics, HistogramQuantileInterpolatesWithinBuckets) {
  MetricsRegistry m;
  Histogram& h = m.histogram("lat", 0.0, 100.0, 10);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 0.0);  // empty -> 0
  for (int i = 0; i < 100; ++i) h.observe(i + 0.5);
  // Uniform mass: quantiles land near q * range, within one bucket width.
  EXPECT_NEAR(histogram_quantile(h, 0.5), 50.0, 10.0);
  EXPECT_NEAR(histogram_quantile(h, 0.9), 90.0, 10.0);
  EXPECT_LE(histogram_quantile(h, 0.99), h.max());
  EXPECT_GE(histogram_quantile(h, 0.0), h.min());
  // Quantiles are monotone in q.
  EXPECT_LE(histogram_quantile(h, 0.5), histogram_quantile(h, 0.9));
  EXPECT_LE(histogram_quantile(h, 0.9), histogram_quantile(h, 0.99));

  // Under/overflow mass resolves to the recorded extrema.
  Histogram& tails = m.histogram("tails", 0.0, 1.0, 2);
  tails.observe(-5.0);
  tails.observe(7.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(tails, 0.25), -5.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(tails, 1.0), 7.0);
}

TEST(Timeline, AbsorbRemapsChildPids) {
  Timeline parent;
  parent.span("stage", "session", 0, kSecond);
  Timeline child;
  child.instant("retry", "session", kMillisecond);
  child.counter("depth", 2 * kMillisecond, 5.0);
  parent.absorb(std::move(child));
  ASSERT_EQ(parent.size(), 3u);
  EXPECT_EQ(parent.events()[0].pid, 0);
  // The child's events land on the next pid track.
  EXPECT_EQ(parent.events()[1].pid, 1);
  EXPECT_EQ(parent.events()[2].pid, 1);
  EXPECT_GE(parent.pid_count(), 2);
}

TEST(Timeline, ChromeJsonHasTraceEventsAndPhases) {
  Timeline t;
  t.span("replay", "session", 0, kSecond, 0, "\"attempt\": 1");
  t.instant("fault", "faults", kMillisecond);
  t.counter("sim.pending_events", 2 * kMillisecond, 17.0);
  t.name_track(0, "session");
  const std::string json = t.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("\"attempt\": 1"), std::string::npos);
  // Durations are rendered in microseconds (Chrome's native unit).
  EXPECT_NE(json.find("\"dur\": 1000000"), std::string::npos);
  // What chrome://tracing needs of each event: name, phase and pid; a
  // timestamp on spans, instants and counters; no negative duration.
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(json, doc, &error)) << error;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->array.empty());
  for (const auto& ev : events->array) {
    for (const char* key : {"name", "ph", "pid"}) {
      EXPECT_NE(ev.find(key), nullptr) << key;
    }
    const JsonValue* ph = ev.find("ph");
    if (ph == nullptr) continue;
    if (ph->str == "X" || ph->str == "i" || ph->str == "C") {
      EXPECT_NE(ev.find("ts"), nullptr) << ph->str;
    }
    if (const JsonValue* dur = ev.find("dur")) {
      EXPECT_GE(dur->num_or(-1.0), 0.0);
    }
  }
}

TEST(Timeline, JsonEscape) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
}

TEST(Recorder, ScopedBindingNestsAndRestores) {
  EXPECT_EQ(Recorder::current(), nullptr);
  Recorder outer(true, false);
  {
    ScopedRecorder bind(&outer);
    EXPECT_EQ(Recorder::current(), &outer);
    Recorder inner(true, true);
    {
      ScopedRecorder nested(&inner);
      EXPECT_EQ(Recorder::current(), &inner);
      ScopedRecorder quiesce(nullptr);
      EXPECT_EQ(Recorder::current(), nullptr);
    }
    EXPECT_EQ(Recorder::current(), &outer);
  }
  EXPECT_EQ(Recorder::current(), nullptr);
}

// The core determinism contract: the same instrumented parallel loop
// produces byte-identical merged metrics and timelines no matter how many
// threads executed it.
TEST(Recorder, ParallelMapMergesIdenticallyAcrossThreadCounts) {
  const auto run_with = [](unsigned threads) {
    Recorder rec(true, true);
    {
      ScopedRecorder bind(&rec);
      parallel::parallel_map(
          8,
          [](std::size_t i) {
            Recorder* r = Recorder::current();
            EXPECT_NE(r, nullptr);
            r->metrics().counter("trial.count").inc();
            r->metrics().counter("trial.work").inc(i + 1);
            r->metrics().gauge("trial.index").set(static_cast<double>(i));
            r->timeline().span("trial", "test", 0,
                               static_cast<Time>(i + 1) * kMillisecond);
            return static_cast<int>(i);
          },
          threads);
    }
    return std::pair<std::string, std::string>(rec.metrics().to_json(),
                                               rec.timeline().chrome_json());
  };
  const auto serial = run_with(1);
  const auto four = run_with(4);
  const auto many = run_with(16);
  EXPECT_EQ(serial.first, four.first);
  EXPECT_EQ(serial.first, many.first);
  EXPECT_EQ(serial.second, four.second);
  EXPECT_EQ(serial.second, many.second);
  EXPECT_EQ(serial.first.empty(), false);
  // The 8 trials show up as 8 absorbed pid tracks plus the parent's.
  EXPECT_NE(serial.second.find("trial 0"), std::string::npos);
  EXPECT_NE(serial.second.find("trial 7"), std::string::npos);
}

replay::SessionConfig session_config(std::uint64_t seed) {
  replay::SessionConfig cfg;
  cfg.scenario = experiments::default_scenario("Netflix", seed);
  cfg.scenario.replay_duration = seconds(30);
  cfg.t_diff_history = {0.06, -0.09, 0.12, -0.04, 0.08, -0.11,
                        0.05, -0.07, 0.10, -0.03, 0.09, -0.06};
  return cfg;
}

replay::SessionResult run_one_session(std::uint64_t seed) {
  auto cfg = session_config(seed);
  topology::TopologyDatabase db;
  replay::seed_topology_database(cfg.scenario, db);
  return replay::run_session(cfg, db);
}

// Full-pipeline determinism: instrumented sessions fanned over the
// parallel engine yield bit-identical observability output across
// WEHEY_THREADS-style thread counts.
TEST(Obs, InstrumentedSessionsIdenticalAcrossThreadCounts) {
  const auto observe = [](unsigned threads) {
    Recorder rec(true, true);
    {
      ScopedRecorder bind(&rec);
      parallel::parallel_map(
          3, [](std::size_t i) { return run_one_session(2 + i).outcome; },
          threads);
    }
    return std::pair<std::string, std::string>(rec.metrics().to_json(2),
                                               rec.timeline().chrome_json());
  };
  const auto serial = observe(1);
  const auto pooled = observe(4);
  EXPECT_EQ(serial.first, pooled.first);
  EXPECT_EQ(serial.second, pooled.second);
  // The session pipeline actually recorded its stages and counters.
  EXPECT_NE(serial.first.find("session.count"), std::string::npos);
  EXPECT_NE(serial.second.find("simultaneous_replays"), std::string::npos);
  EXPECT_NE(serial.first.find("sim.events"), std::string::npos);
  EXPECT_NE(serial.first.find("net.common.delivered_packets"),
            std::string::npos);
}

// Re-running the same seed reproduces the tracer output byte for byte.
TEST(Obs, TracerStableAcrossReruns) {
  const auto trace_once = [] {
    Recorder rec(true, true);
    {
      ScopedRecorder bind(&rec);
      run_one_session(2);
    }
    return rec.timeline().chrome_json();
  };
  const std::string first = trace_once();
  EXPECT_EQ(first, trace_once());
  EXPECT_NE(first.find("wehe_test"), std::string::npos);
  EXPECT_NE(first.find("analysis"), std::string::npos);
}

std::vector<std::string> keys_of(const JsonValue& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.object) keys.push_back(key);
  return keys;
}

TEST(Report, SessionReportIsDeterministicAndComplete) {
  const auto cfg = session_config(2);
  const auto a = run_one_session(2);
  // The second run records metrics, so its report also carries the
  // metric objects whose layout is pinned at the end.
  Recorder rec(/*metrics_on=*/true, /*trace_on=*/false);
  replay::SessionResult b;
  {
    ScopedRecorder bind(&rec);
    b = run_one_session(2);
  }
  const auto ja = replay::make_run_report(cfg, a, "test_session")
                      .to_json(nullptr);
  const auto jb = replay::make_run_report(cfg, b, "test_session")
                      .to_json(nullptr);
  EXPECT_EQ(ja, jb);
  EXPECT_NE(ja.find("\"schema\": \"wehey.run_report.v6\""),
            std::string::npos);
  EXPECT_NE(ja.find("\"run\": \"test_session\""), std::string::npos);
  EXPECT_NE(ja.find("\"verdict\": \"localized within ISP\""),
            std::string::npos);
  EXPECT_NE(ja.find("\"stages\""), std::string::npos);
  EXPECT_NE(ja.find("wehe_test"), std::string::npos);
  EXPECT_NE(ja.find("\"pair_fallbacks\""), std::string::npos);
  EXPECT_NE(ja.find("\"injection\""), std::string::npos);
  EXPECT_NE(ja.find("\"total\": 0"), std::string::npos);
  // v4: the verdict's provenance rode along — both confirmation rows, an
  // evaluated flag, and a run-level margin.
  EXPECT_NE(ja.find("\"decision\""), std::string::npos);
  EXPECT_NE(ja.find("\"evaluated\": true"), std::string::npos);
  EXPECT_NE(ja.find("\"confirmation.p1\""), std::string::npos);
  EXPECT_NE(ja.find("\"confirmation.p2\""), std::string::npos);
  EXPECT_NE(ja.find("\"margin\""), std::string::npos);
  // v5: the ground-truth ledger and its audit rode along. The default
  // scenario throttles on the common link, so a localized session is a
  // true positive with no mismatch reason.
  EXPECT_NE(ja.find("\"ground_truth\""), std::string::npos);
  EXPECT_NE(ja.find("\"mechanism\": \"collective-tbf\""),
            std::string::npos);
  EXPECT_NE(ja.find("\"placement\": \"common-link\""), std::string::npos);
  EXPECT_NE(ja.find("\"within_target_area\": true"), std::string::npos);
  EXPECT_NE(ja.find("\"audit\""), std::string::npos);
  EXPECT_NE(ja.find("\"classification\": \"tp\""), std::string::npos);
  EXPECT_NE(ja.find("\"mismatch_reason\": \"\""), std::string::npos);

  // Key sets: the format sketched in report.hpp, no more and no less.
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(replay::make_run_report(cfg, b, "test_session")
                             .to_json(&rec.metrics()),
                         doc, &error))
      << error;
  ASSERT_EQ(keys_of(doc),
            (std::vector<std::string>{
                "schema", "run", "seed", "fault_plan", "verdict", "reason",
                "decision", "ground_truth", "audit", "stages", "values",
                "injection", "metrics"}));
  const JsonValue* decision = doc.find("decision");
  EXPECT_EQ(keys_of(*decision),
            (std::vector<std::string>{"evaluated", "margin", "detectors",
                                      "aggregation", "degradations"}));
  const std::vector<std::string> row = {"name",   "statistic", "threshold",
                                        "margin", "outcome",   "valid"};
  std::vector<std::string> loss_row = row;
  loss_row.push_back("rho");
  loss_row.push_back("sigma_ms");
  ASSERT_NE(decision->find("detectors"), nullptr);
  for (const auto& d : decision->find("detectors")->array) {
    const bool loss = d.find("rho") != nullptr;
    EXPECT_EQ(keys_of(d), loss ? loss_row : row);
  }
  ASSERT_NE(decision->find("aggregation"), nullptr);
  EXPECT_EQ(keys_of(*decision->find("aggregation")),
            (std::vector<std::string>{"sizes_tested", "sizes_correlated",
                                      "sizes_valid", "threshold", "margin",
                                      "outcome"}));
  EXPECT_EQ(keys_of(*doc.find("ground_truth")),
            (std::vector<std::string>{
                "differentiated", "mechanism", "placement",
                "within_target_area", "rate_bps", "activation_bytes",
                "sanity_check"}));
  EXPECT_EQ(keys_of(*doc.find("audit")),
            (std::vector<std::string>{"expected_positive",
                                      "observed_positive", "classification",
                                      "mismatch_reason"}));
  ASSERT_FALSE(doc.find("stages")->array.empty());
  for (const auto& st : doc.find("stages")->array) {
    EXPECT_EQ(keys_of(st), (std::vector<std::string>{
                               "name", "sim_start_us", "sim_end_us"}));
  }
  const JsonValue* metrics = doc.find("metrics");
  ASSERT_EQ(keys_of(*metrics), (std::vector<std::string>{
                                   "counters", "gauges", "histograms"}));
  ASSERT_FALSE(metrics->find("gauges")->object.empty());
  for (const auto& [name, g] : metrics->find("gauges")->object) {
    EXPECT_EQ(keys_of(g), (std::vector<std::string>{"last", "min", "max"}))
        << name;
  }
  ASSERT_FALSE(metrics->find("histograms")->object.empty());
  for (const auto& [name, h] : metrics->find("histograms")->object) {
    EXPECT_EQ(keys_of(h), (std::vector<std::string>{"lo", "hi", "count",
                                                    "sum", "min", "max",
                                                    "bins"}))
        << name;
  }
}

// v5 classification table: expected (from truth) x observed x skip
// reason, with the mismatch reason graded against the decision margin.
TEST(Report, ClassifyAuditCoversTheConfusionMatrix) {
  GroundTruthSection truth;  // not present -> audit absent
  DecisionSection decision;
  EXPECT_FALSE(
      classify_audit(truth, true, false, "", decision).present);

  truth.present = true;
  truth.differentiated = true;
  truth.within_target_area = true;
  decision.evaluated = true;
  decision.has_margin = true;
  decision.margin = 0.8;

  const auto tp = classify_audit(truth, true, false, "", decision);
  EXPECT_TRUE(tp.present);
  EXPECT_TRUE(tp.expected_positive);
  EXPECT_EQ(tp.classification, "tp");
  EXPECT_EQ(tp.mismatch_reason, "");

  const auto fn = classify_audit(truth, false, false, "", decision);
  EXPECT_EQ(fn.classification, "fn");
  EXPECT_EQ(fn.mismatch_reason, "clear-miss");

  // A localized-but-wrong-mechanism run is a miss with its own reason.
  const auto mech = classify_audit(truth, false, true, "", decision);
  EXPECT_EQ(mech.classification, "fn");
  EXPECT_EQ(mech.mismatch_reason, "mechanism-mismatch");

  // Budget-exhausted runs never reached a verdict: skipped, not wrong.
  const auto skipped =
      classify_audit(truth, false, false, kSkipBudgetExhausted, decision);
  EXPECT_EQ(skipped.classification, "skipped");
  EXPECT_EQ(skipped.mismatch_reason, "budget-exhausted");

  // Sanity-check runs expect a negative even though the network is
  // configured to differentiate.
  truth.sanity_check = true;
  const auto fp = classify_audit(truth, true, false, "", decision);
  EXPECT_FALSE(fp.expected_positive);
  EXPECT_EQ(fp.classification, "fp");
  EXPECT_EQ(fp.mismatch_reason, "clear-miss");
  const auto tn = classify_audit(truth, false, false, "", decision);
  EXPECT_EQ(tn.classification, "tn");
  EXPECT_EQ(tn.mismatch_reason, "");
  truth.sanity_check = false;

  // Outside the target area (the NonCommonLinks scenario) a positive is
  // a false positive by construction.
  truth.within_target_area = false;
  EXPECT_EQ(classify_audit(truth, true, false, "", decision)
                .classification,
            "fp");
  truth.within_target_area = true;

  // §6.2 leaves runs WeHe did not confirm out of its rates: skipped,
  // whatever the verdict and whichever way the truth points.
  for (const bool within : {true, false}) {
    truth.within_target_area = within;
    for (const bool observed : {true, false}) {
      const auto unconfirmed =
          classify_audit(truth, observed, false, kSkipNotConfirmed, decision);
      EXPECT_EQ(unconfirmed.expected_positive, within);
      EXPECT_EQ(unconfirmed.classification, "skipped");
      EXPECT_EQ(unconfirmed.mismatch_reason, "not-confirmed");
    }
  }
  truth.within_target_area = true;

  // Miss grading: no decision at all, no margin, sub-margin (knife
  // edge), clear.
  DecisionSection none;
  EXPECT_EQ(classify_audit(truth, false, false, "", none)
                .mismatch_reason,
            "not-evaluated");
  none.evaluated = true;
  EXPECT_EQ(classify_audit(truth, false, false, "", none)
                .mismatch_reason,
            "no-margin");
  none.has_margin = true;
  none.margin = -0.01;  // |margin| under the default 0.05 threshold
  EXPECT_EQ(classify_audit(truth, false, false, "", none)
                .mismatch_reason,
            "sub-margin-miss");
}

// The percentiles come from the histogram bins: a report stores only the
// bins (v2-v5 also stored the quantiles), and inspect derives p50/p90/p99
// from them.
TEST(Report, V2PercentilesDerivedFromHistograms) {
  MetricsRegistry m;
  Histogram& h = m.histogram("lat_ms", 0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.observe(i * 0.1);
  m.histogram("never_observed", 0.0, 1.0, 4);  // empty -> no row
  RunReport rep;
  rep.run = "r";
  const std::string json = rep.to_json(&m);
  EXPECT_EQ(json.find("\"percentiles\""), std::string::npos);
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(write_report_file(dir + "/percentiles.json", json));
  std::FILE* sink = std::fopen((dir + "/percentiles.txt").c_str(), "w");
  ASSERT_NE(sink, nullptr);
  EXPECT_TRUE(inspect_file(dir + "/percentiles.json", sink));
  std::fclose(sink);
  std::string rendered;
  ASSERT_TRUE(read_file(dir + "/percentiles.txt", rendered));
  char row[160];
  std::snprintf(row, sizeof(row), "  %-28s %10.0f %10.4g %10.4g %10.4g",
                "lat_ms", 100.0, histogram_quantile(h, 0.50),
                histogram_quantile(h, 0.90), histogram_quantile(h, 0.99));
  EXPECT_NE(rendered.find(row), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find("never_observed"), std::string::npos);
}

// A file small enough to sit in the stdio buffer fails only at fclose
// (ENOSPC on /dev/full); the write must still report the failure.
TEST(Report, WriteFailureShowingOnlyAtCloseIsReported) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  EXPECT_FALSE(write_report_file("/dev/full", "{}"));
}

// Tentpole part 1: the simulator hot paths (queues, links, TCP) populate
// their histograms whenever a recorder is bound.
TEST(Obs, HotPathHistogramsPopulated) {
  Recorder rec(true, false);
  {
    ScopedRecorder bind(&rec);
    run_one_session(2);
  }
  const auto& hists = rec.metrics().histograms();
  for (const char* name :
       {"queue.fifo.residency_ms", "tcp.rtt_ms", "tcp.srtt_ms",
        "tcp.flow_srtt_ms", "tcp.flow_retx", "link.common.utilization"}) {
    const auto it = hists.find(name);
    ASSERT_NE(it, hists.end()) << name;
    EXPECT_GT(it->second.count(), 0u) << name;
  }
  EXPECT_GT(rec.metrics().counter("net.common.busy_us").value(), 0u);
  EXPECT_GT(rec.metrics().counter("tcp.flows").value(), 0u);
}

// The same histograms merge bit-identically across thread counts, with
// fault injection on (the hardest case: retries, damaged uploads and
// traceroutes all fold into the same registries).
TEST(Obs, HotPathHistogramsIdenticalAcrossThreadCountsWithFaults) {
  const auto observe = [](unsigned threads) {
    Recorder rec(true, false);
    {
      ScopedRecorder bind(&rec);
      parallel::parallel_map(
          4,
          [](std::size_t i) {
            auto cfg = session_config(2 + i);
            cfg.fault_plan =
                faults::shipped_plan(i % 2 == 0 ? "kitchen-sink"
                                                : "traceroute-damage",
                                     5 + i);
            topology::TopologyDatabase db;
            replay::seed_topology_database(cfg.scenario, db);
            return replay::run_session(cfg, db).outcome;
          },
          threads);
    }
    return rec.metrics().to_json(2);
  };
  const auto serial = observe(1);
  const auto pooled = observe(4);
  EXPECT_EQ(serial, pooled);
  EXPECT_NE(serial.find("queue.fifo.residency_ms"), std::string::npos);
  EXPECT_NE(serial.find("link.common.utilization"), std::string::npos);
  EXPECT_NE(serial.find("tcp.srtt_ms"), std::string::npos);
}

// run_full_experiment_reported: a populated v2 report regardless of the
// environment (no recorder bound here), byte-stable across reruns.
TEST(Obs, FullExperimentReportIsPopulatedAndDeterministic) {
  experiments::ScenarioConfig cfg =
      experiments::default_scenario("Netflix", 3);
  cfg.replay_duration = seconds(30);
  const std::vector<double> t_diff = {0.06, -0.09, 0.12, -0.04,
                                      0.08, -0.11, 0.05, -0.07,
                                      0.10, -0.03, 0.09, -0.06};
  const auto run_json = [&] {
    const auto res =
        experiments::run_full_experiment_reported(cfg, t_diff, "test_full");
    EXPECT_FALSE(res.report.verdict.empty());
    return res.report.to_json(&res.metrics);
  };
  const std::string first = run_json();
  EXPECT_NE(first.find("\"schema\": \"wehey.run_report.v6\""),
            std::string::npos);
  EXPECT_NE(first.find("\"run\": \"test_full\""), std::string::npos);
  EXPECT_NE(first.find("sim_original"), std::string::npos);
  EXPECT_NE(first.find("single_inverted"), std::string::npos);
  EXPECT_NE(first.find("queue.fifo.residency_ms"), std::string::npos);
  EXPECT_EQ(first, run_json());
}

// Satellite 3: with >= 2 suitable pairs per prefix, a pair that keeps
// aborting is replaced mid-session (§3.4 fallback) and the fallback is
// visible in the result, the metrics, and the report.
TEST(Obs, PairFallbackFiresAndIsCounted) {
  auto cfg = session_config(2);
  faults::FaultSpec abort_p2;
  abort_p2.kind = faults::FaultKind::ReplayAbort;
  abort_p2.path = 2;
  abort_p2.probability = 1.0;
  abort_p2.count = 3;  // exactly exhausts the first pair's replay attempts
  cfg.fault_plan.name = "abort_pair_one";
  cfg.fault_plan.seed = 7;
  cfg.fault_plan.faults.push_back(abort_p2);

  topology::TopologyDatabase db;
  replay::seed_topology_database(cfg.scenario, db);

  Recorder rec(true, false);
  replay::SessionResult result;
  {
    ScopedRecorder bind(&rec);
    result = replay::run_session(cfg, db);
  }
  EXPECT_GE(result.pair_fallbacks, 1);
  EXPECT_EQ(result.injection[faults::FaultKind::ReplayAbort], 3);
  // The session survived on the standby pair.
  EXPECT_EQ(result.outcome, replay::SessionOutcome::LocalizedWithinIsp);
  EXPECT_EQ(result.pair.server2, "s3");
  EXPECT_GE(rec.metrics().counter("session.pair_fallbacks").value(), 1u);
  EXPECT_GE(rec.metrics().counter("faults.replays_aborted").value(), 3u);

  const auto report =
      replay::make_run_report(cfg, result, "fallback_session");
  const std::string json = report.to_json(&rec.metrics());
  EXPECT_NE(json.find("\"fault_plan\": \"abort_pair_one\""),
            std::string::npos);
  EXPECT_NE(json.find("\"replays_aborted\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

// --- v4 decision provenance ----------------------------------------------

/// The "decision" object of a serialized run report (everything between
/// its key and the matching closing brace), for section-level
/// byte-equality assertions.
std::string decision_section_of(const std::string& json) {
  const auto at = json.find("\"decision\": {");
  if (at == std::string::npos) return {};
  long depth = 0;
  for (std::size_t i = json.find('{', at); i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) return json.substr(at, i - at + 1);
  }
  return {};
}

// The decision section is a pure function of the run's seeds: sessions
// fanned over 1 vs 8 threads — under the kitchen-sink and event-storm
// chaos plans, the hardest cases — serialize byte-identical sections.
TEST(Decision, SectionByteIdenticalAcrossThreadCountsAndChaosPlans) {
  ::unsetenv("WEHEY_TRIAL_MAX_EVENTS");
  ::unsetenv("WEHEY_TRIAL_MAX_SIM_MS");
  const auto sections_with = [](unsigned threads) {
    std::vector<std::string> out(4);
    parallel::parallel_map(
        4,
        [&out](std::size_t i) {
          auto cfg = session_config(2 + i);
          cfg.fault_plan = faults::shipped_plan(
              i % 2 == 0 ? "kitchen-sink" : "event-storm", 5 + i);
          topology::TopologyDatabase db;
          replay::seed_topology_database(cfg.scenario, db);
          const auto result = replay::run_session(cfg, db);
          out[i] = decision_section_of(
              replay::make_run_report(cfg, result, "d" + std::to_string(i))
                  .to_json(nullptr));
          return 0;
        },
        threads);
    return out;
  };
  const auto serial = sections_with(1);
  const auto pooled = sections_with(8);
  EXPECT_EQ(serial, pooled);
  for (const auto& section : serial) {
    EXPECT_FALSE(section.empty());
    EXPECT_NE(section.find("\"evaluated\""), std::string::npos);
    EXPECT_NE(section.find("\"detectors\""), std::string::npos);
    EXPECT_NE(section.find("\"degradations\""), std::string::npos);
  }
}

// A budget-exhausted session never reached localize(); its report must
// still carry the full decision object — evaluated=false with empty
// arrays and no margin — not a stump.
TEST(Decision, BudgetExhaustedRunCarriesEmptyButValidBlock) {
  ::unsetenv("WEHEY_TRIAL_MAX_EVENTS");
  ::unsetenv("WEHEY_TRIAL_MAX_SIM_MS");
  auto cfg = session_config(2);
  cfg.fault_plan = faults::shipped_plan("event-storm", 1);
  topology::TopologyDatabase db;
  replay::seed_topology_database(cfg.scenario, db);
  const auto result = replay::run_session(cfg, db);
  ASSERT_EQ(result.outcome, replay::SessionOutcome::BudgetExhausted);
  const std::string json =
      replay::make_run_report(cfg, result, "storm").to_json(nullptr);
  const std::string section = decision_section_of(json);
  ASSERT_FALSE(section.empty());
  EXPECT_NE(section.find("\"evaluated\": false"), std::string::npos);
  EXPECT_NE(section.find("\"detectors\": []"), std::string::npos);
  EXPECT_NE(section.find("\"degradations\": []"), std::string::npos);
  EXPECT_EQ(section.find("\"margin\""), std::string::npos);
  EXPECT_EQ(section.find("\"aggregation\""), std::string::npos);
}

// A completed localization writes coherent rows: statistic vs threshold
// with the signed-margin convention (positive = supports the outcome).
TEST(Decision, CompletedSessionTraceIsCoherent) {
  const auto result = run_one_session(2);
  const core::DecisionTrace& trace = result.localization.trace;
  ASSERT_TRUE(trace.evaluated);
  ASSERT_GE(trace.detectors.size(), 2u);  // both confirmation rows at least
  EXPECT_EQ(trace.detectors[0].detector, "confirmation.p1");
  EXPECT_EQ(trace.detectors[1].detector, "confirmation.p2");
  for (const auto& e : trace.detectors) {
    // p-values compared against p-thresholds: both sides in [0, 1].
    EXPECT_GE(e.statistic, 0.0) << e.detector;
    EXPECT_LE(e.statistic, 1.0) << e.detector;
    EXPECT_GT(e.threshold, 0.0) << e.detector;
    EXPECT_LE(std::abs(e.margin), 1.0) << e.detector;
    // The margin is negative only when a secondary gate overrode the
    // primary comparison; then the statistic sits on the outcome's far
    // side.
    if (e.margin < 0.0 && e.outcome) {
      EXPECT_GE(e.statistic, e.threshold) << e.detector;
    }
  }
  // This seed localizes (asserted elsewhere), so a verdict margin exists
  // and is a normalized distance.
  ASSERT_TRUE(trace.has_verdict_margin);
  EXPECT_GE(trace.verdict_margin, 0.0);
  EXPECT_LE(trace.verdict_margin, 1.0);
}

}  // namespace
}  // namespace wehey::obs
