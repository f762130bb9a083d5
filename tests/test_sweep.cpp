// Sweep-scale observability: the SweepAggregator merge algebra (order-
// and thread-count-insensitive, read-back == in-process), the run-report
// reader RunReport::from_json (the exact inverse of to_json) and the sweep
// report's key sets, the files ObservedSweep writes and resumes from, the
// baseline comparator behind `wehey_cli compare`, and the readers'
// handling of the frozen current-version fixtures under tests/data/ and
// of other versions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "experiments/params.hpp"
#include "experiments/wild.hpp"
#include "obs/aggregate.hpp"
#include "obs/checkpoint.hpp"
#include "obs/inspect.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "obs/sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "replay/session.hpp"
#include "topology/database.hpp"

namespace wehey::obs {
namespace {

// ------------------------------------------------------- merge algebra

/// A small synthetic per-run report + registry, deterministic in `i` and
/// deliberately awkward: non-associative double values, per-cell labels,
/// histograms with under/overflow.
std::pair<RunReport, MetricsRegistry> synthetic_run(std::size_t i) {
  RunReport r;
  char name[32];
  std::snprintf(name, sizeof(name), "sweep_test.c%zu.r%03zu", i % 3, i);
  r.run = name;
  std::snprintf(name, sizeof(name), "cell%zu", i % 3);
  r.cell = name;
  r.seed = 100 + i;
  r.verdict = i % 2 == 0 ? "localized" : "no evidence";
  if (i % 4 == 3) r.reason = "degraded measurements";
  if (i % 5 == 0) r.fault_plan = "kitchen-sink";
  r.values["score"] = 0.1 * static_cast<double>(i) + 1e-3 / (i + 1.0);
  r.values["tput_mbps"] = 40.0 / (1.0 + static_cast<double>(i % 7));
  r.injection["replays_aborted"] = static_cast<int>(i % 2);
  // cell0 sits on the knife edge (|margin| well below 0.05);
  // cell1 and cell2 are comfortably decided. Alternating signs exercise
  // the |margin| convention in the knife_edge block.
  r.decision.evaluated = true;
  r.decision.has_margin = true;
  const double magnitude = i % 3 == 0
                               ? 0.01 + 0.005 * static_cast<double>(i)
                               : 0.4 + 0.01 * static_cast<double>(i);
  r.decision.margin = i % 2 == 0 ? magnitude : -magnitude;
  // v5 ground truth + audit: every run expects a positive; even runs
  // observe one (tp), odd runs miss (fn) with the reason graded by their
  // margin magnitude — so the audit fold sees multiple mismatch kinds.
  r.ground_truth.present = true;
  r.ground_truth.differentiated = true;
  r.ground_truth.mechanism = kMechanismCollectiveTbf;
  r.ground_truth.placement = kPlacementCommonLink;
  r.ground_truth.within_target_area = true;
  r.ground_truth.rate_bps = 1e6 + static_cast<double>(i);
  r.audit = classify_audit(r.ground_truth, i % 2 == 0,
                           /*mechanism_mismatch=*/false,
                           /*budget_exhausted=*/false, r.decision);
  r.add_stage("wehe_test", 0, (1 + Time(i)) * kSecond);
  r.add_stage("analysis", (1 + Time(i)) * kSecond,
              (2 + Time(i)) * kSecond);

  MetricsRegistry m;
  m.counter("sim.events").inc(1000 + i);
  m.gauge("queue.depth").set(static_cast<double>(i % 5));
  m.gauge("queue.depth").set(static_cast<double>(10 - (i % 4)));
  Histogram& h = m.histogram("lat_ms", 0.0, 10.0, 8);
  h.observe(-0.5);
  h.observe(0.07 * static_cast<double>(i % 17));
  h.observe(0.9 * static_cast<double>(i % 13));
  h.observe(42.0);
  return {std::move(r), std::move(m)};
}

/// The report and registry RunReport::from_json reads back from `json`.
std::pair<RunReport, MetricsRegistry> read_back(const std::string& json) {
  std::pair<RunReport, MetricsRegistry> run;
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(json_parse(json, doc, &error)) << error;
  EXPECT_TRUE(RunReport::from_json(doc, run.first, run.second, &error))
      << error;
  return run;
}

TEST(Sweep, AggregateIsAbsorbOrderInsensitive) {
  const std::size_t n = 12;
  std::vector<std::pair<RunReport, MetricsRegistry>> runs;
  for (std::size_t i = 0; i < n; ++i) runs.push_back(synthetic_run(i));

  SweepAggregator forward("sweep_test");
  for (const auto& [r, m] : runs) forward.add_run(r, &m);
  SweepAggregator reverse("sweep_test");
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
    reverse.add_run(it->first, &it->second);
  }
  // An interleaved order as a third witness.
  SweepAggregator shuffled("sweep_test");
  for (std::size_t i = 0; i < n; i += 2) {
    shuffled.add_run(runs[i].first, &runs[i].second);
  }
  for (std::size_t i = 1; i < n; i += 2) {
    shuffled.add_run(runs[i].first, &runs[i].second);
  }
  const std::string json = forward.to_json();
  EXPECT_EQ(json, reverse.to_json());
  EXPECT_EQ(json, shuffled.to_json());
  EXPECT_EQ(forward.runs(), n);
  EXPECT_NE(json.find("\"schema\": \"wehey.sweep_report.v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cells\""), std::string::npos);
  EXPECT_NE(json.find("\"cell0\""), std::string::npos);
  EXPECT_NE(json.find("\"wehe_test\""), std::string::npos);
}

TEST(Sweep, OfflineJsonMergeMatchesInProcessMergeByteForByte) {
  const std::size_t n = 9;
  SweepAggregator in_process("sweep_test");
  SweepAggregator offline("sweep_test");
  for (std::size_t i = 0; i < n; ++i) {
    const auto [r, m] = synthetic_run(i);
    in_process.add_run(r, &m);
    const auto [read, read_metrics] = read_back(r.to_json(&m));
    offline.add_run(read, &read_metrics);
  }
  EXPECT_EQ(in_process.to_json(), offline.to_json());
}

TEST(Sweep, KnifeEdgeFlagsOnlyCellsNearTheDecisionBoundary) {
  EXPECT_DOUBLE_EQ(kKnifeEdgeMargin, 0.05);
  SweepAggregator agg("knife");
  for (std::size_t i = 0; i < 12; ++i) {
    const auto [r, m] = synthetic_run(i);
    agg.add_run(r, &m);
  }
  const std::string json = agg.to_json();
  const std::size_t start = json.find("\"knife_edge\"");
  ASSERT_NE(start, std::string::npos);
  // The v5 audit block follows immediately, so slice up to it.
  const std::string block =
      json.substr(start, json.find("\"audit\"") - start);
  // cell0's minimum |margin| is 0.01 with three runs under the 0.05
  // threshold; the other cells never dip below 0.4 (negative margins count by
  // magnitude, so cell1's -0.41 does not flag).
  EXPECT_NE(block.find("\"margin_threshold\": 0.05"), std::string::npos);
  EXPECT_NE(block.find("\"cell0\": {\"min_margin\": 0.01, "
                       "\"runs_below\": 3}"),
            std::string::npos)
      << block;
  EXPECT_EQ(block.find("\"cell1\""), std::string::npos);
  EXPECT_EQ(block.find("\"cell2\""), std::string::npos);
}

TEST(Sweep, AuditFoldsRunClassificationsIntoConfusionMatrices) {
  SweepAggregator agg("audit");
  for (std::size_t i = 0; i < 12; ++i) {
    const auto [r, m] = synthetic_run(i);
    agg.add_run(r, &m);
  }
  const std::string json = agg.to_json();
  const std::size_t start = json.find("\"audit\"");
  ASSERT_NE(start, std::string::npos);
  const std::string block =
      json.substr(start, json.find("\"metrics\"") - start);
  // Grid: the six even runs land tp, the six odd runs miss (fn). The one
  // odd knife-edge run (i=3, |margin| 0.025 < 0.05) grades
  // sub-margin-miss; the other five misses are clear.
  EXPECT_NE(block.find("\"tp\": 6"), std::string::npos) << block;
  EXPECT_NE(block.find("\"fn\": 6"), std::string::npos);
  EXPECT_NE(block.find("\"accuracy\": 0.5"), std::string::npos);
  EXPECT_NE(block.find("\"precision\": 1"), std::string::npos);
  EXPECT_NE(block.find("\"recall\": 0.5"), std::string::npos);
  EXPECT_NE(block.find("\"sub-margin-miss\": 1"), std::string::npos);
  EXPECT_NE(block.find("\"clear-miss\": 5"), std::string::npos);
  // Per-cell matrices: each cell sees 2 tp + 2 fn, and only cell0 (the
  // sub-0.05 margins) carries the knife-edge flag.
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = block.find(needle); at != std::string::npos;
         at = block.find(needle, at + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"tp\": 2"), 3u) << block;
  EXPECT_EQ(count("\"fn\": 2"), 3u);
  EXPECT_EQ(count("\"knife_edge\": true"), 1u);
  EXPECT_EQ(count("\"knife_edge\": false"), 2u);

  // The audit fold obeys the same merge algebra as everything else:
  // absorbing the per-run reports read back from their serialized form
  // reproduces the in-process aggregate byte for byte (audit block
  // included).
  SweepAggregator offline("audit");
  for (std::size_t i = 0; i < 12; ++i) {
    const auto [r, m] = synthetic_run(i);
    const auto [read, read_metrics] = read_back(r.to_json(&m));
    offline.add_run(read, &read_metrics);
  }
  EXPECT_EQ(json, offline.to_json());
}

// The sweep reads runs back only through RunReport::from_json, which
// refuses every document to_json cannot have written and says why.
TEST(Sweep, RejectsNonReportDocuments) {
  // from_json's message for `text`, or "accepted" when it reads it.
  const auto read_error = [](const std::string& text) {
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(json_parse(text, doc, &error)) << text;
    RunReport report;
    MetricsRegistry metrics;
    if (RunReport::from_json(doc, report, metrics, &error)) {
      return std::string("accepted");
    }
    return error;
  };
  const std::string wrong_schema =
      std::string("not a ") + kRunReportSchema + " document";
  EXPECT_EQ(read_error("[1, 2]"), "not a JSON object");
  EXPECT_EQ(read_error(std::string("{\"schema\": \"") + kSweepReportSchema +
                       "\"}"),
            wrong_schema);
  // Only the run-report version this build writes is read.
  EXPECT_EQ(read_error("{\"schema\": \"wehey.run_report.v5\", "
                       "\"run\": \"old\", \"verdict\": \"done\", "
                       "\"stages\": [], \"values\": {}}"),
            wrong_schema);
  const std::string v6 = std::string("{\"schema\": \"") + kRunReportSchema +
                         "\", \"run\": \"bad\", ";
  EXPECT_EQ(read_error(v6 + "\"stages\": [{\"sim_start_us\": 0, "
                            "\"sim_end_us\": 1}]}"),
            "malformed stages entry");
  EXPECT_EQ(read_error(v6 + "\"metrics\": {\"histograms\": {\"h\": "
                            "{\"lo\": 0, \"hi\": 1, \"count\": 0}}}}"),
            "histogram 'h' has fewer than 3 bins");
  EXPECT_EQ(read_error(v6 + "\"metrics\": {\"histograms\": {\"h\": "
                            "{\"lo\": 0, \"hi\": 1, \"count\": 0, "
                            "\"bins\": [0, 0]}}}}"),
            "histogram 'h' has fewer than 3 bins");
  // Integer fields must hold a whole number in range for their type.
  EXPECT_EQ(read_error(v6 + "\"seed\": -1}"), "malformed seed");
  EXPECT_EQ(read_error(v6 + "\"injection\": {\"drop\": 1e30}}"),
            "malformed injection 'drop'");
  EXPECT_EQ(read_error(v6 + "\"metrics\": {\"counters\": {\"c\": 1.5}}}"),
            "malformed counter 'c'");
  EXPECT_EQ(read_error(v6 + "\"metrics\": {\"histograms\": {\"h\": "
                            "{\"lo\": 0, \"hi\": 1, \"count\": 0, "
                            "\"bins\": [0, 2e19, 0]}}}}"),
            "malformed histogram 'h'");
  // Missing sections read as empty.
  EXPECT_EQ(read_error(v6 + "\"verdict\": \"done\"}"), "accepted");
}

std::vector<std::string> keys_of(const JsonValue& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.object) keys.push_back(key);
  return keys;
}

// The sweep format sketched in aggregate.hpp, no more and no less.
TEST(Sweep, ReportKeySetsMatchTheFormat) {
  SweepAggregator agg("keys");
  for (std::size_t i = 0; i < 6; ++i) {
    const auto [r, m] = synthetic_run(i);
    agg.add_run(r, &m);
  }
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(agg.to_json(), doc, &error)) << error;
  EXPECT_EQ(keys_of(doc),
            (std::vector<std::string>{
                "schema", "sweep", "runs", "fault_plans", "verdicts",
                "reasons", "injection", "values", "stages", "cells",
                "quarantine", "knife_edge", "audit", "metrics"}));
  const JsonValue* cells = doc.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->object.size(), 3u);
  for (const auto& [name, cell] : cells->object) {
    EXPECT_EQ(keys_of(cell),
              (std::vector<std::string>{"runs", "verdicts", "values"}))
        << name;
  }
  const JsonValue* audit = doc.find("audit");
  ASSERT_NE(audit, nullptr);
  EXPECT_EQ(keys_of(*audit), (std::vector<std::string>{"grid", "cells"}));
  std::vector<std::string> matrix = {"tp", "fp", "fn", "tn", "skipped",
                                     "accuracy", "precision", "recall",
                                     "mismatch_reasons"};
  ASSERT_NE(audit->find("grid"), nullptr);
  EXPECT_EQ(keys_of(*audit->find("grid")), matrix);
  matrix.push_back("knife_edge");
  const JsonValue* audit_cells = audit->find("cells");
  ASSERT_NE(audit_cells, nullptr);
  ASSERT_EQ(audit_cells->object.size(), 3u);
  for (const auto& [name, cell] : audit_cells->object) {
    EXPECT_EQ(keys_of(cell), matrix) << name;
  }
}

// The acceptance property: a real grid sweep aggregated from parallel
// trials is byte-identical across thread counts.
TEST(Sweep, WildSweepByteIdenticalAcrossThreadCounts) {
  using experiments::WildConfig;
  const auto isps = experiments::default_isp_models();
  WildConfig base;
  base.isp = isps[0];
  base.seed = 1;
  const auto t_diff = experiments::build_wild_t_diff(base, 8);

  const auto sweep_json = [&](unsigned threads) {
    const auto results = parallel::parallel_map(
        3,
        [&](std::size_t i) {
          WildConfig cfg = base;
          cfg.seed = 1000 + i * 17;
          char run_id[48];
          std::snprintf(run_id, sizeof(run_id), "wild_sweep.r%03zu", i);
          return experiments::run_wild_test_reported(
              cfg, t_diff, /*sanity_check=*/false, run_id);
        },
        threads);
    SweepAggregator agg("wild_sweep");
    for (const auto& res : results) agg.add_run(res.report, &res.metrics);
    return agg.to_json();
  };
  const std::string serial = sweep_json(1);
  const std::string pooled = sweep_json(4);
  EXPECT_EQ(serial, pooled);
  EXPECT_NE(serial.find("\"runs\": 3"), std::string::npos);
  EXPECT_NE(serial.find("single_original"), std::string::npos);
}

// ------------------------------------------------------------ compare

JsonValue parse(const std::string& text) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(json_parse(text, doc, &error)) << error;
  return doc;
}

TEST(Compare, WithinToleranceAndDriftDetected) {
  const JsonValue base =
      parse("{\"values\": {\"score\": {\"mean\": 100.0}}, \"runs\": 10}");
  CompareOptions opts;
  opts.tolerance = 0.05;
  // 2% drift: fine.
  const auto ok = compare_reports(
      base, parse("{\"values\": {\"score\": {\"mean\": 102.0}}, "
                  "\"runs\": 10}"),
      opts);
  EXPECT_TRUE(ok.ok) << (ok.failures.empty() ? "" : ok.failures[0]);
  // 10% drift: out of tolerance.
  const auto drift = compare_reports(
      base, parse("{\"values\": {\"score\": {\"mean\": 110.0}}, "
                  "\"runs\": 10}"),
      opts);
  EXPECT_FALSE(drift.ok);
  ASSERT_EQ(drift.failures.size(), 1u);
  EXPECT_NE(drift.failures[0].find("values.score.mean"), std::string::npos);
  // Integer drift (runs changed) is caught by the same machinery.
  const auto fewer = compare_reports(
      base, parse("{\"values\": {\"score\": {\"mean\": 100.0}}, "
                  "\"runs\": 7}"),
      opts);
  EXPECT_FALSE(fewer.ok);
}

TEST(Compare, MissingKeysIgnoreAndFloors) {
  const JsonValue base =
      parse("{\"a\": 1.0, \"wall_ms\": 5.0, \"verdict\": \"ok\"}");
  CompareOptions opts;
  opts.ignore.push_back("wall");
  // Candidate dropped "a" -> failure; changed wall_ms -> ignored; new key
  // -> note only.
  const auto res = compare_reports(
      base, parse("{\"wall_ms\": 500.0, \"verdict\": \"ok\", \"b\": 2}"),
      opts);
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.failures.size(), 1u);
  EXPECT_NE(res.failures[0].find("missing in candidate: a"),
            std::string::npos);
  ASSERT_EQ(res.notes.size(), 1u);
  EXPECT_NE(res.notes[0].find("b"), std::string::npos);
  // Verdict strings compare exactly.
  const auto verdict = compare_reports(
      base, parse("{\"a\": 1.0, \"wall_ms\": 5.0, \"verdict\": \"bad\"}"),
      opts);
  EXPECT_FALSE(verdict.ok);

  // min-key floors judge the candidate alone.
  CompareOptions floors;
  floors.min_keys.emplace_back("tput", 10.0);
  EXPECT_TRUE(compare_reports(parse("{\"tput\": 50.0}"),
                              parse("{\"tput\": 49.0}"), floors)
                  .ok);
  EXPECT_FALSE(compare_reports(parse("{\"tput\": 50.0}"),
                               parse("{\"tput\": 9.0}"), floors)
                   .ok);
  // A sibling flag exempts nothing: the floor holds for every match.
  const JsonValue flagged =
      parse("{\"row\": {\"tput\": 9.0, \"oversubscribed\": true}}");
  EXPECT_FALSE(compare_reports(flagged, flagged, floors).ok);
  // A floor that matches nothing must fail loudly, not silently pass.
  CompareOptions dangling;
  dangling.min_keys.emplace_back("no_such_key", 1.0);
  EXPECT_FALSE(
      compare_reports(parse("{\"a\": 1}"), parse("{\"a\": 1}"), dangling)
          .ok);
}

TEST(Compare, PerKeyToleranceOverride) {
  CompareOptions opts;
  opts.tolerance = 0.01;
  opts.key_tolerances.emplace_back("noisy", 0.5);
  const auto res = compare_reports(
      parse("{\"noisy_metric\": 100.0, \"stable\": 100.0}"),
      parse("{\"noisy_metric\": 140.0, \"stable\": 100.5}"), opts);
  ASSERT_EQ(res.failures.size(), 0u) << res.failures[0];
}

TEST(Compare, RequireKeyGuardsSectionExistence) {
  const JsonValue base = parse("{\"a\": 1.0}");
  const JsonValue cand = parse(
      "{\"a\": 1.0, \"knife_edge\": {\"margin_threshold\": 0.05, "
      "\"cells\": {\"ISP2\": {\"min_margin\": 0.01, \"runs_below\": 2}}}}");

  // Existence is asserted against all candidate keys — even ones the
  // numeric diff ignores, so CI can exempt knife_edge drift while still
  // failing if the section disappears outright.
  CompareOptions opts;
  opts.ignore.push_back("knife_edge");
  opts.require_keys.push_back("knife_edge\\.margin_threshold");
  opts.require_keys.push_back("knife_edge\\.cells");
  EXPECT_TRUE(compare_reports(base, cand, opts).ok);

  // A pattern matching nothing fails loudly instead of silently turning
  // the gate into a no-op.
  opts.require_keys.push_back("decision");
  const auto res = compare_reports(base, cand, opts);
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.failures.size(), 1u);
  EXPECT_NE(
      res.failures[0].find("require-key pattern matched nothing: decision"),
      std::string::npos);
}

// -------------------------------------------------- inspect hardening

TEST(Inspect, MalformedAndUnknownFilesFailWithoutPartialOutput) {
  const std::string dir = ::testing::TempDir();
  const std::string bad = dir + "/bad.json";
  ASSERT_TRUE(write_report_file(bad, "{\"schema\": \"wehey.run_report.v6\","));
  std::FILE* sink = std::fopen((dir + "/sink.txt").c_str(), "w");
  ASSERT_NE(sink, nullptr);
  EXPECT_FALSE(inspect_file(bad, sink));
  EXPECT_FALSE(inspect_file(dir + "/does_not_exist.json", sink));
  const std::string alien = dir + "/alien.json";
  ASSERT_TRUE(write_report_file(alien, "{\"hello\": 1}"));
  EXPECT_FALSE(inspect_file(alien, sink));
  // A well-formed report of a version this build does not write.
  const std::string old = dir + "/old.json";
  ASSERT_TRUE(write_report_file(
      old,
      "{\"schema\": \"wehey.run_report.v5\", \"run\": \"old\", "
      "\"seed\": 1, \"fault_plan\": \"\", \"verdict\": \"done\", "
      "\"reason\": \"\", \"stages\": [], \"values\": {}, "
      "\"injection\": {}, \"metrics\": {\"counters\": {}, \"gauges\": {}, "
      "\"histograms\": {}}}"));
  EXPECT_FALSE(inspect_file(old, sink));
  // A current-version report RunReport::from_json refuses.
  const std::string malformed = dir + "/malformed.json";
  ASSERT_TRUE(write_report_file(
      malformed,
      "{\"schema\": \"wehey.run_report.v6\", \"run\": \"bad\", "
      "\"stages\": [{\"sim_start_us\": 1}]}"));
  EXPECT_FALSE(inspect_file(malformed, sink));
  // A current-version sweep whose merged histogram has a count no integer
  // holds: its quantiles cannot be derived.
  const std::string bad_sweep = dir + "/bad_sweep.json";
  ASSERT_TRUE(write_report_file(
      bad_sweep, std::string("{\"schema\": \"") + kSweepReportSchema +
                     "\", \"sweep\": \"s\", \"metrics\": {\"histograms\": "
                     "{\"h\": {\"lo\": 0, \"hi\": 1, \"count\": 2.5, "
                     "\"bins\": [0, 2, 0]}}}}"));
  EXPECT_FALSE(inspect_file(bad_sweep, sink));
  // Nothing was rendered for any of the failures.
  std::fclose(sink);
  std::string rendered;
  ASSERT_TRUE(read_file(dir + "/sink.txt", rendered));
  EXPECT_TRUE(rendered.empty());
}

// fopen succeeds on a directory, and ftell there reports a size no read
// can deliver; reading one fails instead.
TEST(Inspect, DirectoryIsNotAFile) {
  const std::string dir = ::testing::TempDir();
  std::string text;
  EXPECT_FALSE(read_file(dir, text));
  std::FILE* sink = std::fopen((dir + "/dir_sink.txt").c_str(), "w");
  ASSERT_NE(sink, nullptr);
  EXPECT_FALSE(inspect_file(dir, sink));
  std::fclose(sink);
  ASSERT_TRUE(read_file(dir + "/dir_sink.txt", text));
  EXPECT_TRUE(text.empty());
}

TEST(Inspect, ParserRejectsPathologicalDocuments) {
  JsonValue doc;
  std::string error;
  // Unbounded nesting is refused at a fixed depth instead of recursing
  // until the stack gives out.
  EXPECT_FALSE(json_parse(std::string(100000, '['), doc, &error));
  EXPECT_EQ(error, "nesting too deep");
  std::string object_bomb;
  for (int i = 0; i < 1000; ++i) object_bomb += "{\"a\":";
  EXPECT_FALSE(json_parse(object_bomb, doc, &error));
  EXPECT_EQ(error, "nesting too deep");
  // Nesting inside the cap still parses.
  std::string deep_ok(40, '[');
  deep_ok.append(40, ']');
  EXPECT_TRUE(json_parse(deep_ok, doc, &error)) << error;
  // Truncated and malformed documents fail with a message, not a crash.
  for (const char* bad :
       {"", "{\"run\": [1, 2", "\"unterminated", "{\"a\" 1}", "{} trailing",
        "tru", "nul", "{\"a\":}", "[1,]", "{\"a\": \"\\x\"}"}) {
    EXPECT_FALSE(json_parse(bad, doc, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // Numbers follow the JSON grammar and fit a double: no spelling strtod
  // alone accepts, and no literal that overflows to infinity. A NaN would
  // pass every tolerance test and floor of `wehey_cli compare`.
  for (const char* bad :
       {"NaN", "-nan", "Infinity", "-Infinity", "0x1p-1", "+100", ".5",
        "1e999", "-1e999", "01", "1.", "1e", "-", "[1, NaN]",
        "{\"accuracy\": NaN}"}) {
    EXPECT_FALSE(json_parse(bad, doc, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  for (const char* good : {"0", "-0", "1.5e-3", "2E+2", "-0.25", "1e-999"}) {
    EXPECT_TRUE(json_parse(good, doc, &error)) << good << ": " << error;
    EXPECT_TRUE(std::isfinite(doc.number)) << good;
  }

  // The same failures surface file-level: a pathological report file
  // inspects to false without emitting partial output.
  const std::string dir = ::testing::TempDir();
  const std::string deep = dir + "/deep.json";
  ASSERT_TRUE(write_report_file(deep, std::string(100000, '[')));
  const std::string sink_path = dir + "/deep_sink.txt";
  std::FILE* sink = std::fopen(sink_path.c_str(), "w");
  ASSERT_NE(sink, nullptr);
  EXPECT_FALSE(inspect_file(deep, sink));
  std::fclose(sink);
  std::string rendered;
  ASSERT_TRUE(read_file(sink_path, rendered));
  EXPECT_TRUE(rendered.empty());

  // A runtime sidecar whose latency histogram holds a count or a bin that
  // no integer can represent is refused like any other malformed input,
  // with no partial output, instead of casting the double (undefined
  // behaviour for NaN, 1e30 or a negative value).
  const auto sidecar = [](const std::string& section,
                          const std::string& count, const std::string& bin) {
    const std::string hist = "{\"lo\": 0, \"hi\": 100, \"min\": 1, "
                             "\"max\": 2, \"count\": " + count +
                             ", \"bins\": [" + bin + ", 0]}";
    const std::string key =
        section == "scheduler" ? "submit_to_start_us" : "wall_ms";
    return "{\"schema\": \"wehey.runtime_report.v1\", \"run\": \"r\", "
           "\"wall_seconds\": 1, \"" + section + "\": {\"" + key +
           "\": " + hist + "}}";
  };
  const std::string side = dir + "/runtime.json";
  const auto inspect_sidecar = [&](const std::string& text,
                                   std::string& output) {
    EXPECT_TRUE(write_report_file(side, text));
    std::FILE* f = std::fopen(sink_path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    const bool ok = inspect_file(side, f);
    std::fclose(f);
    EXPECT_TRUE(read_file(sink_path, output));
    return ok;
  };
  for (const std::string section : {"scheduler", "trials"}) {
    std::string output;
    EXPECT_TRUE(inspect_sidecar(sidecar(section, "2", "2"), output));
    EXPECT_FALSE(output.empty());
    for (const auto& [count, bin] :
         std::vector<std::pair<std::string, std::string>>{
             {"1e30", "2"}, {"NaN", "2"}, {"2.5", "2"}, {"-1", "2"},
             {"2", "1e30"}, {"2", "NaN"}, {"2", "-1"}, {"2", "Infinity"}}) {
      EXPECT_FALSE(inspect_sidecar(sidecar(section, count, bin), output))
          << section << " count " << count << " bin " << bin;
      EXPECT_TRUE(output.empty()) << section << " count " << count;
    }
  }
}

TEST(Compare, FlattenKeysListsTheComparableKeySpace) {
  // Backs the --list-keys discovery flow in wehey_cli compare: sorted
  // dotted paths, arrays indexed, every leaf type included.
  const JsonValue doc = parse(
      "{\"b\": {\"y\": 1.5, \"x\": [2, \"s\"]}, \"a\": true, "
      "\"c\": null, \"d\": {}}");
  const std::vector<std::string> expected = {"a", "b.x[0]", "b.x[1]", "b.y",
                                             "c"};
  EXPECT_EQ(flatten_keys(doc), expected);
}

TEST(Inspect, DegradesGracefullyOnMissingOptionalSections) {
  // A sparse current-version report: no decision, ground truth, audit or
  // cell, and one histogram.
  const std::string dir = ::testing::TempDir();
  const std::string sparse = dir + "/sparse.json";
  ASSERT_TRUE(write_report_file(
      sparse,
      "{\"schema\": \"wehey.run_report.v6\", \"run\": \"sparse\", "
      "\"seed\": 1, \"fault_plan\": \"\", \"verdict\": \"done\", "
      "\"reason\": \"\", \"stages\": [], \"values\": {}, "
      "\"injection\": {}, \"metrics\": {\"counters\": {}, \"gauges\": {}, "
      "\"histograms\": {\"lat_ms\": {\"lo\": 0, \"hi\": 1, \"count\": 2, "
      "\"sum\": 1, \"min\": 0.5, \"max\": 0.5, \"bins\": [0, 2, 0]}}}}"));
  std::FILE* sink = std::fopen((dir + "/sparse.txt").c_str(), "w");
  ASSERT_NE(sink, nullptr);
  EXPECT_TRUE(inspect_file(sparse, sink));
  std::fclose(sink);
  std::string rendered;
  ASSERT_TRUE(read_file(dir + "/sparse.txt", rendered));
  EXPECT_NE(rendered.find("wehey.run_report.v6"), std::string::npos);
  EXPECT_NE(rendered.find("sparse"), std::string::npos);
  EXPECT_NE(rendered.find("lat_ms"), std::string::npos);
}

TEST(Inspect, RendersSweepReports) {
  SweepAggregator agg("render_me");
  for (std::size_t i = 0; i < 4; ++i) {
    const auto [r, m] = synthetic_run(i);
    agg.add_run(r, &m);
  }
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/sweep.json";
  ASSERT_TRUE(write_report_file(path, agg.to_json()));
  std::FILE* sink = std::fopen((dir + "/sweep.txt").c_str(), "w");
  ASSERT_NE(sink, nullptr);
  EXPECT_TRUE(inspect_file(path, sink));
  std::fclose(sink);
  std::string rendered;
  ASSERT_TRUE(read_file(dir + "/sweep.txt", rendered));
  EXPECT_NE(rendered.find("sweep report"), std::string::npos);
  EXPECT_NE(rendered.find("render_me"), std::string::npos);
  EXPECT_NE(rendered.find("cell0"), std::string::npos);
  // The histogram quantiles come from the merged bins.
  EXPECT_NE(rendered.find("histogram percentiles (merged bins)"),
            std::string::npos);
  EXPECT_NE(rendered.find("lat_ms"), std::string::npos);
  // The v5 confusion-matrix table renders alongside the older sections.
  EXPECT_NE(rendered.find("AUDIT"), std::string::npos);
  EXPECT_NE(rendered.find("(grid)"), std::string::npos);
}

// ---------------------------------------------------- frozen fixtures

/// One real document of each current version is frozen under tests/data/:
/// a change to a reader that stops accepting them fails here. A version
/// bump replaces the fixture along with the constant.
TEST(Inspect, FrozenFixtureReportsStillRender) {
  const std::string root = WEHEY_SOURCE_DIR;
  const char* fixtures[] = {
      "/tests/data/run_report_v6.json",
      "/tests/data/sweep_report_v2.json",
      "/tests/data/runtime_report_v1.json",
  };
  const std::string dir = ::testing::TempDir();
  for (const char* fixture : fixtures) {
    const std::string sink_path = dir + "/fixture.txt";
    std::FILE* sink = std::fopen(sink_path.c_str(), "w");
    ASSERT_NE(sink, nullptr);
    EXPECT_TRUE(inspect_file(root + fixture, sink)) << fixture;
    std::fclose(sink);
    std::string rendered;
    ASSERT_TRUE(read_file(sink_path, rendered));
    EXPECT_FALSE(rendered.empty()) << fixture;
  }
}

std::string frozen_run_report() {
  std::string text;
  EXPECT_TRUE(read_file(std::string(WEHEY_SOURCE_DIR) +
                            "/tests/data/run_report_v6.json",
                        text));
  return text;
}

TEST(Sweep, FrozenRunReportFixturesStillAbsorb) {
  SweepAggregator agg("fixtures");
  const auto [report, metrics] = read_back(frozen_run_report());
  agg.add_run(report, &metrics);
  EXPECT_EQ(agg.runs(), 1u);
  // The decision margin joins the value summaries.
  EXPECT_NE(agg.to_json().find("\"decision_margin\""), std::string::npos);
}

TEST(Sweep, FrozenV4AndV5FixturesAbsorbMarginsAndAudit) {
  // The current fixture's margin and audit are absorbed; the same
  // document tagged v5 is refused, so the audit block holds exactly the
  // fixture's one true positive.
  std::string v5 = frozen_run_report();
  const std::size_t tag = v5.find(kRunReportSchema);
  ASSERT_NE(tag, std::string::npos);
  v5.replace(tag, std::string(kRunReportSchema).size(),
             "wehey.run_report.v5");
  JsonValue doc;
  ASSERT_TRUE(json_parse(v5, doc));
  RunReport refused;
  MetricsRegistry refused_metrics;
  std::string error;
  EXPECT_FALSE(RunReport::from_json(doc, refused, refused_metrics, &error));
  EXPECT_FALSE(error.empty());
  SweepAggregator agg("fixtures_v45");
  const auto [report, metrics] = read_back(frozen_run_report());
  agg.add_run(report, &metrics);
  EXPECT_EQ(agg.runs(), 1u);
  const std::string json = agg.to_json();
  EXPECT_NE(json.find("\"decision_margin\""), std::string::npos);
  const std::size_t start = json.find("\"audit\"");
  ASSERT_NE(start, std::string::npos);
  const std::string block =
      json.substr(start, json.find("\"metrics\"") - start);
  EXPECT_NE(block.find("\"tp\": 1"), std::string::npos) << block;
  EXPECT_NE(block.find("\"fn\": 0"), std::string::npos);
  EXPECT_NE(block.find("\"skipped\": 0"), std::string::npos);
  EXPECT_NE(block.find("\"accuracy\": 1"), std::string::npos);
}

TEST(Sweep, NoAuditedRunMeansNoAuditBlock) {
  // Runs without a ground truth carry no audit section, and a sweep of
  // only such runs has no audit block at all, live or read back.
  SweepAggregator in_process("unaudited");
  SweepAggregator offline("unaudited");
  for (std::size_t i = 0; i < 4; ++i) {
    auto [r, m] = synthetic_run(i);
    r.ground_truth = GroundTruthSection{};
    r.audit = AuditSection{};
    in_process.add_run(r, &m);
    const auto [read, read_metrics] = read_back(r.to_json(&m));
    EXPECT_FALSE(read.audit.present);
    offline.add_run(read, &read_metrics);
  }
  const std::string json = in_process.to_json();
  EXPECT_EQ(json.find("\"audit\""), std::string::npos);
  EXPECT_EQ(json, offline.to_json());
}

// ------------------------------------------------------ report reader

/// synthetic_run(i) with every optional field of the format set:
/// detector rho/sigma_ms, the aggregation block, degradations, an
/// activation threshold and an empty histogram; odd runs have an empty
/// cell.
std::pair<RunReport, MetricsRegistry> every_field_run(std::size_t i) {
  auto [r, m] = synthetic_run(i);
  if (i % 2 == 1) r.cell.clear();
  const double x = static_cast<double>(i);
  r.decision.detectors = {
      {"throughput", 0.31 + x, 0.05, 0.26, true, true},
      {"loss_trend.size_10ms", 0.47, 0.5, -0.03 * x, false, true,
       /*has_rho=*/true, 0.47 - x / 7.0, 10.0 / 3.0}};
  r.decision.has_aggregation = true;
  r.decision.sizes_tested = 5;
  r.decision.sizes_correlated = 3 + i % 2;
  r.decision.sizes_valid = 4;
  r.decision.aggregation_threshold = 3.8;
  r.decision.aggregation_margin = -0.2 + 0.1 * x;
  r.decision.aggregation_outcome = i % 2 == 1;
  r.decision.degradations = {"scrub", "pair-fallback"};
  r.ground_truth.activation_bytes = 2000000 + static_cast<std::int64_t>(i);
  r.ground_truth.sanity_check = i % 3 == 0;
  m.histogram("empty_ms", 0.0, 1.0, 4);
  return {std::move(r), std::move(m)};
}

TEST(RunReport, FromJsonInvertsToJson) {
  const auto round_trip = [](const std::string& json) {
    const auto [report, metrics] = read_back(json);
    return report.to_json(&metrics);
  };
  const std::string fixture = frozen_run_report();
  EXPECT_EQ(round_trip(fixture), fixture);

  for (std::size_t i = 0; i < 6; ++i) {
    const auto [r, m] = every_field_run(i);
    const std::string json = r.to_json(&m);
    EXPECT_EQ(round_trip(json), json) << r.run;
  }
  // The optional fields did reach the bytes under test.
  const auto [r, m] = every_field_run(1);
  const std::string json = r.to_json(&m);
  for (const char* key :
       {"\"rho\"", "\"sigma_ms\"", "\"aggregation\"", "\"degradations\": "
        "[\"scrub\"", "\"empty_ms\"", "\"activation_bytes\": 2000001",
        "\"ground_truth\"", "\"audit\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.find("\"cell\""), std::string::npos);

  // A real wild test and a real session, with their recorded metrics.
  experiments::WildConfig wild;
  wild.isp = experiments::default_isp_models()[0];
  wild.replay_duration = seconds(8);
  wild.seed = 1;
  const auto res = experiments::run_wild_test_reported(
      wild, experiments::build_wild_t_diff(wild, 3), /*sanity_check=*/false,
      "roundtrip.wild");
  const std::string wild_json = res.report.to_json(&res.metrics);
  EXPECT_EQ(round_trip(wild_json), wild_json);

  replay::SessionConfig session;
  session.scenario = experiments::default_scenario("Netflix", 2);
  session.scenario.replay_duration = seconds(8);
  session.t_diff_history = {0.06, -0.09, 0.12, -0.04, 0.08, -0.11};
  topology::TopologyDatabase db;
  replay::seed_topology_database(session.scenario, db);
  Recorder rec(/*metrics_on=*/true, /*trace_on=*/false);
  replay::SessionResult result;
  {
    ScopedRecorder bind(&rec);
    result = replay::run_session(session, db);
  }
  const std::string session_json =
      replay::make_run_report(session, result, "roundtrip.session")
          .to_json(&rec.metrics());
  EXPECT_FALSE(rec.metrics().gauges().empty());
  EXPECT_EQ(round_trip(session_json), session_json);
}

// ------------------------------------------------------ ObservedSweep

/// Sets the obs environment for a scope (nullptr unsets) and restores it.
class ScopedEnv {
 public:
  explicit ScopedEnv(
      std::initializer_list<std::pair<const char*, const char*>> overrides) {
    for (const char* name :
         {"WEHEY_TRACE", "WEHEY_REPORT", "WEHEY_REPORT_DIR",
          "WEHEY_CHECKPOINT", "WEHEY_RUNTIME_REPORT", "WEHEY_PROGRESS"}) {
      const char* old = std::getenv(name);
      saved_.emplace_back(name, old != nullptr
                                    ? std::optional<std::string>(old)
                                    : std::nullopt);
      ::unsetenv(name);
    }
    for (const auto& [name, value] : overrides) {
      if (value != nullptr) ::setenv(name, value, 1);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;
  ~ScopedEnv() {
    for (const auto& [name, value] : saved_) {
      if (value.has_value()) {
        ::setenv(name, value->c_str(), 1);
      } else {
        ::unsetenv(name);
      }
    }
  }

 private:
  std::vector<std::pair<const char*, std::optional<std::string>>> saved_;
};

/// A fresh, empty directory under the test temp dir.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::set<std::string> files_in(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    names.insert(e.path().filename().string());
  }
  return names;
}

std::string slurp(const std::string& path) {
  std::string text;
  EXPECT_TRUE(read_file(path, text)) << path;
  return text;
}

// WEHEY_REPORT_DIR writes every report the process has; WEHEY_REPORT
// names the process's own report and nothing else.
TEST(ObservedSweep, ReportDirWritesEveryReport) {
  const std::size_t n = 3;
  SweepAggregator expected("every");
  std::set<std::string> want = {"every.report.json", "every.sweep.json"};
  for (std::size_t i = 0; i < n; ++i) {
    const auto [r, m] = synthetic_run(i);
    expected.add_run(r, &m);
    want.insert(r.run + ".report.json");
  }
  const auto run_sweep = [&] {
    ObservedSweep sweep("every");
    for (std::size_t i = 0; i < n; ++i) {
      const auto [r, m] = synthetic_run(i);
      const auto values = sweep.absorb(r.run, r, &m);
      EXPECT_EQ(values, r.values);
    }
    EXPECT_TRUE(sweep.finish());
  };

  const std::string dir = fresh_dir("report_dir");
  {
    ScopedEnv env({{"WEHEY_REPORT_DIR", dir.c_str()}});
    run_sweep();
  }
  EXPECT_EQ(files_in(dir), want);
  EXPECT_EQ(slurp(dir + "/every.sweep.json"), expected.to_json());
  const auto [r, metrics] = synthetic_run(1);
  EXPECT_EQ(slurp(dir + "/" + r.run + ".report.json"), r.to_json(&metrics));
  // The own report carries the absorbed runs' injection tally.
  JsonValue own;
  ASSERT_TRUE(json_parse(slurp(dir + "/every.report.json"), own));
  const JsonValue* injection = own.find("injection");
  ASSERT_NE(injection, nullptr);
  ASSERT_NE(injection->find("replays_aborted"), nullptr);
  EXPECT_EQ(injection->find("replays_aborted")->number, 1.0);

  const std::string single = fresh_dir("report_path");
  const std::string path = single + "/own.json";
  {
    ScopedEnv env({{"WEHEY_REPORT", path.c_str()}});
    run_sweep();
  }
  EXPECT_EQ(files_in(single), std::set<std::string>{"own.json"});
  EXPECT_EQ(slurp(path), slurp(dir + "/every.report.json"));

  // A per-run report that cannot be written fails finish() like any other
  // artifact.
  const std::string broken = fresh_dir("report_dir_broken");
  {
    ScopedEnv env({{"WEHEY_REPORT_DIR", broken.c_str()}});
    ObservedSweep sweep("every");
    const auto [r0, m0] = synthetic_run(0);
    sweep.absorb("no_such_dir/" + r0.run, r0, &m0);
    EXPECT_FALSE(sweep.finish());
  }
}

// A sweep aggregates the runs it absorbed. With none, WEHEY_REPORT_DIR
// writes only the own report, whose offline merge is that report's sweep;
// sweep_to() still writes its (empty) sweep.
TEST(ObservedSweep, ZeroRunSweepAggregatesItsOwnReport) {
  const std::string dir = fresh_dir("zero_run");
  RunReport own;
  {
    ScopedEnv env({{"WEHEY_REPORT_DIR", dir.c_str()}});
    ObservedSweep sweep("solo");
    sweep.report().verdict = "completed";
    sweep.report().values["score"] = 0.25;
    own = sweep.report();
  }
  EXPECT_EQ(files_in(dir), std::set<std::string>{"solo.report.json"});
  SweepAggregator expected("solo");
  const MetricsRegistry nothing_recorded;
  expected.add_run(own, &nothing_recorded);
  const auto [read, read_metrics] =
      read_back(slurp(dir + "/solo.report.json"));
  SweepAggregator merged("solo");
  merged.add_run(read, &read_metrics);
  EXPECT_EQ(merged.to_json(), expected.to_json());

  const std::string out = fresh_dir("zero_run_out") + "/solo.sweep.json";
  {
    ScopedEnv env({{"WEHEY_REPORT_DIR", nullptr}});
    ObservedSweep sweep("solo");
    sweep.sweep_to(out);
  }
  EXPECT_EQ(slurp(out), SweepAggregator("solo").to_json());
  EXPECT_NE(slurp(out).find("\"runs\": 0,"), std::string::npos);

  // An unnamed own report is no report: nothing to aggregate, no file.
  const std::string quiet = fresh_dir("zero_run_unnamed");
  {
    ScopedEnv env({{"WEHEY_REPORT_DIR", quiet.c_str()}});
    ObservedSweep sweep("silent");
    sweep.report().run.clear();
  }
  EXPECT_TRUE(files_in(quiet).empty());
}

// Each artifact variable set to "0" is off, as if unset: a sweep that
// absorbs a run writes no file (not one named "0") and finishes clean.
TEST(ObservedSweep, ZeroMeansOffForEveryArtifactVariable) {
  const auto [r, m] = synthetic_run(0);
  const std::filesystem::path cwd = std::filesystem::current_path();
  for (const char* name :
       {"WEHEY_TRACE", "WEHEY_REPORT", "WEHEY_REPORT_DIR", "WEHEY_CHECKPOINT",
        "WEHEY_RUNTIME_REPORT"}) {
    const std::string dir = fresh_dir(std::string("zero_off_") + name);
    std::filesystem::current_path(dir);
    {
      ScopedEnv env({{name, "0"}});
      ObservedSweep sweep("zero");
      sweep.absorb(r.run, r, &m);
      EXPECT_TRUE(sweep.finish()) << name;
    }
    std::filesystem::current_path(cwd);
    EXPECT_TRUE(files_in(dir).empty()) << name;
  }
}

// A journal from an older build carries reports this build cannot absorb.
// Such a run is not completed: it executes again, and the resumed sweep
// still equals the uninterrupted one.
TEST(ObservedSweep, StaleJournalEntryExecutesAgain) {
  const std::size_t n = 4;
  const std::string ref = fresh_dir("stale_ref");
  const std::string journal = ref + "/journal.jsonl";
  {
    ScopedEnv env({{"WEHEY_REPORT_DIR", ref.c_str()},
                   {"WEHEY_CHECKPOINT", journal.c_str()}});
    ObservedSweep sweep("stale");
    for (std::size_t i = 0; i < n; ++i) {
      const auto [r, m] = synthetic_run(i);
      sweep.absorb(r.run, r, &m);
    }
  }
  // Retag the second run's embedded report with the previous version.
  std::string text = slurp(journal);
  const std::string current = std::string("\\\"") + kRunReportSchema;
  const std::size_t second = text.find('\n') + 1;
  const std::size_t tag = text.find(current, second);
  ASSERT_NE(tag, std::string::npos);
  text.replace(tag, current.size(), "\\\"wehey.run_report.v5");
  const std::string resumed = fresh_dir("stale_resumed");
  const std::string stale_journal = resumed + "/journal.jsonl";
  ASSERT_TRUE(write_report_file(stale_journal, text));

  {
    ScopedEnv env({{"WEHEY_REPORT_DIR", resumed.c_str()},
                   {"WEHEY_CHECKPOINT", stale_journal.c_str()}});
    ObservedSweep sweep("stale");
    for (std::size_t i = 0; i < n; ++i) {
      const auto [r, m] = synthetic_run(i);
      EXPECT_EQ(sweep.completed(r.run), i != 1) << r.run;
      const auto values = sweep.absorb(
          r.run, sweep.completed(r.run) ? RunReport{} : r, &m);
      EXPECT_EQ(values, r.values) << r.run;
    }
  }
  EXPECT_EQ(slurp(resumed + "/stale.sweep.json"),
            slurp(ref + "/stale.sweep.json"));
  EXPECT_EQ(slurp(resumed + "/stale.report.json"),
            slurp(ref + "/stale.report.json"));
  CheckpointJournal cut;
  ASSERT_TRUE(CheckpointJournal::load(stale_journal, cut));
  for (std::size_t i = 0; i < n; ++i) {
    const std::string run = synthetic_run(i).first.run;
    const std::string file = run + ".report.json";
    EXPECT_EQ(slurp(resumed + "/" + file), slurp(ref + "/" + file)) << file;
    // A journaled run's file holds the journaled bytes.
    if (i != 1) {
      ASSERT_NE(cut.find(run), nullptr) << run;
      EXPECT_EQ(slurp(resumed + "/" + file), cut.find(run)->report_json);
    }
  }
  // The re-executed run was journaled again, so the next resume finds
  // every run completed.
  {
    ScopedEnv env({{"WEHEY_CHECKPOINT", stale_journal.c_str()}});
    ObservedSweep sweep("stale");
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(sweep.completed(synthetic_run(i).first.run));
    }
  }
}

// A journaled run reaches the progress meter with its verdict and margin,
// exactly as the live run did: a resumed sweep keeps its quarantine and
// knife-edge tallies.
TEST(ObservedSweep, ResumedRunsKeepTheirProgressTallies) {
  const std::string dir = fresh_dir("meter");
  const std::string journal = dir + "/journal.jsonl";
  auto knife = synthetic_run(0);
  ASSERT_LT(std::abs(knife.first.decision.margin), kKnifeEdgeMargin);
  auto poisoned = synthetic_run(1);
  poisoned.first.verdict = kBudgetExhaustedVerdict;
  ASSERT_GE(std::abs(poisoned.first.decision.margin), kKnifeEdgeMargin);
  {
    ScopedEnv env({{"WEHEY_CHECKPOINT", journal.c_str()}});
    ObservedSweep sweep("meter");
    for (const auto& [r, m] : {knife, poisoned}) sweep.absorb(r.run, r, &m);
  }
  std::string err;
  {
    ScopedEnv env({{"WEHEY_CHECKPOINT", journal.c_str()},
                   {"WEHEY_PROGRESS", "plain"}});
    ::testing::internal::CaptureStderr();
    {
      ObservedSweep sweep("meter");
      sweep.expect_runs(2);
      for (const auto& [r, m] : {knife, poisoned}) {
        EXPECT_TRUE(sweep.completed(r.run));
        sweep.absorb(r.run, RunReport{}, nullptr);
      }
    }
    err = ::testing::internal::GetCapturedStderr();
  }
  EXPECT_NE(err.find("meter: 2/2 runs"), std::string::npos) << err;
  EXPECT_NE(err.find("(resumed 2, quarantined 1, knife-edge 1)"),
            std::string::npos)
      << err;
}

// ----------------------------------------------------- report mode env

TEST(ReportMode, ParsesEnvironmentKnob) {
  // WEHEY_REPORT names the own report, never a sweep.
  ScopedEnv env({{"WEHEY_REPORT", "/tmp/x.json"}});
  EXPECT_EQ(report_path_from_env("r"), "/tmp/x.json");
  EXPECT_EQ(sweep_path_from_env("r"), "");
  ::setenv("WEHEY_REPORT_DIR", "/tmp", 1);
  EXPECT_EQ(report_path_from_env("r"), "/tmp/x.json");
  EXPECT_EQ(sweep_path_from_env("r"), "/tmp/r.sweep.json");
  ::unsetenv("WEHEY_REPORT");
  EXPECT_EQ(report_path_from_env("r"), "/tmp/r.report.json");
  ::unsetenv("WEHEY_REPORT_DIR");
  EXPECT_EQ(report_path_from_env("r"), "");
  EXPECT_EQ(sweep_path_from_env("r"), "");
  // "0" is off, as if unset: WEHEY_REPORT=0 defers to the directory, and
  // WEHEY_REPORT_DIR=0 names no file.
  ::setenv("WEHEY_REPORT", "0", 1);
  ::setenv("WEHEY_REPORT_DIR", "/tmp", 1);
  EXPECT_EQ(report_path_from_env("r"), "/tmp/r.report.json");
  ::setenv("WEHEY_REPORT_DIR", "0", 1);
  EXPECT_EQ(report_path_from_env("r"), "");
  EXPECT_EQ(sweep_path_from_env("r"), "");
}

}  // namespace
}  // namespace wehey::obs
