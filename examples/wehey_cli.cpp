// wehey_cli — a command-line front end over the library.
//
//   wehey_cli testbed  [--app NAME] [--seed N] [--placement common|nc|perflow]
//                      [--factor F] [--queue Q] [--fraction P] [--rtt2 MS]
//                      [--cc cubic|reno|bbr] [--unmodified] [--spoof]
//   wehey_cli wild     [--isp 0..4] [--seed N] [--app NAME] [--sanity]
//   wehey_cli session  [--seed N] [--churn] [--decline]
//   wehey_cli topology [--clients N] [--seed N]
//   wehey_cli sweep    [--app NAME] [--runs N] [--fp]
//                      [--checkpoint PATH [--resume]] [--out PATH]
//                      (with --checkpoint/--out: full experiments ->
//                      sweep_report.v1, one flushed journal line per
//                      completed run; --resume skips journaled runs and
//                      reproduces the uninterrupted bytes)
//   wehey_cli trace    [--seed N] [--max-events N]   (ascii packet trace)
//   wehey_cli full     [--app NAME] [--seed N] [--out PATH] [--faults NAME]
//                      (full 4-phase experiment -> RunReport; JSON to
//                      stdout when no --out/WEHEY_REPORT destination)
//   wehey_cli inspect  FILE...   (render report/sweep/trace JSON as tables)
//   wehey_cli merge    FILE... [--out PATH] [--name SWEEP]
//                      (offline per-run reports -> one sweep_report.v1)
//   wehey_cli compare  BASELINE CANDIDATE [--tol X] [--tol-key RE=X]...
//                      [--ignore RE]... [--min-key RE=X]...
//                      [--require-key RE]...
//                      (regression gate: nonzero exit on drift)
//
// Every command runs under one obs::ObservedSweep named "wehey_cli_<cmd>":
// it honours the observability environment (WEHEY_TRACE=path,
// WEHEY_RUNTIME_REPORT=path, WEHEY_PROGRESS=plain|tty). WEHEY_REPORT=path
// names the report of wild, session and full; WEHEY_REPORT_DIR=dir also
// takes the per-run reports of a checkpointed sweep. wild, session, sweep
// and full inject a shipped chaos plan with --faults NAME (or
// WEHEY_FAULT_PLAN=NAME; seed: --chaos-seed N or WEHEY_CHAOS_SEED); an
// unknown name exits 2.
// Status lines go to stderr; exit 1 when an artifact fails to write.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/loss_correlation.hpp"
#include "core/coupling.hpp"
#include "experiments/history.hpp"
#include "experiments/params.hpp"
#include "experiments/wild.hpp"
#include "faults/plan.hpp"
#include "experiments/scenario.hpp"
#include "netsim/tracer.hpp"
#include "obs/aggregate.hpp"
#include "obs/inspect.hpp"
#include "obs/report.hpp"
#include "obs/sweep.hpp"
#include "replay/session.hpp"
#include "topology/construction.hpp"
#include "topology/database.hpp"
#include "topology/synthetic.hpp"
#include "trace/apps.hpp"
#include "trace/background.hpp"

using namespace wehey;
using namespace wehey::experiments;

namespace {

/// Minimal --key value / --flag parser.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
        std::exit(2);
      }
      key = key.substr(2);
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }
  std::string get(const std::string& key, const std::string& dflt) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }
  double num(const std::string& key, double dflt) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Shipped chaos plan from --faults NAME / --chaos-seed N, falling back
/// to WEHEY_FAULT_PLAN / WEHEY_CHAOS_SEED.
std::optional<faults::FaultPlan> fault_plan_from(const Args& args) {
  return faults::requested_plan(
      args.get("faults", ""),
      static_cast<std::uint64_t>(args.num("chaos-seed", 0)));
}

ScenarioConfig scenario_from(const Args& args) {
  auto cfg = default_scenario(args.get("app", "Netflix"),
                              static_cast<std::uint64_t>(args.num("seed", 42)));
  const std::string placement = args.get("placement", "common");
  if (placement == "nc") {
    cfg.placement = Placement::NonCommonLinks;
  } else if (placement == "perflow") {
    cfg.placement = Placement::PerFlowCommonLink;
  }
  cfg.input_rate_factor = args.num("factor", cfg.input_rate_factor);
  cfg.queue_burst_factor = args.num("queue", cfg.queue_burst_factor);
  cfg.bg_diff_fraction = args.num("fraction", cfg.bg_diff_fraction);
  cfg.rtt2_ms = args.num("rtt2", cfg.rtt2_ms);
  cfg.modified_traces = !args.has("unmodified");
  cfg.spoof_same_flow = args.has("spoof");
  const std::string cc = args.get("cc", "cubic");
  if (cc == "reno") cfg.tcp_cc = transport::CongestionControl::NewReno;
  if (cc == "bbr") cfg.tcp_cc = transport::CongestionControl::Bbr;
  return cfg;
}

int cmd_testbed(const Args& args) {
  const auto cfg = scenario_from(args);
  const auto d = derive(cfg);
  std::printf("app=%s seed=%llu trace=%.2f Mbps limiter=%.2f Mbps\n",
              cfg.app.c_str(),
              static_cast<unsigned long long>(cfg.seed),
              d.trace_rate / 1e6, d.limiter_rate / 1e6);
  const auto sim = run_simultaneous_experiment(cfg);
  std::printf("WeHe confirmation: %s (p1 p=%.3g, p2 p=%.3g)\n",
              sim.differentiation_confirmed ? "both paths" : "NOT confirmed",
              sim.p1_confirmation.p_value, sim.p2_confirmation.p_value);
  std::printf("p1: %.2f Mbps, loss %.3f | p2: %.2f Mbps, loss %.3f\n",
              sim.original.p1.avg_throughput_bps / 1e6,
              sim.original.p1.retx_rate,
              sim.original.p2.avg_throughput_bps / 1e6,
              sim.original.p2.retx_rate);
  const auto corr = core::loss_trend_correlation(
      sim.original.p1.meas, sim.original.p2.meas,
      milliseconds(std::max(cfg.rtt1_ms, cfg.rtt2_ms)));
  std::printf("loss-trend correlation: %zu/%zu sizes -> %s\n",
              corr.sizes_correlated, corr.sizes_tested,
              corr.common_bottleneck ? "COMMON BOTTLENECK" : "no evidence");
  const auto coupled = core::coupled_bottleneck_test(
      sim.original.p1.meas.throughput_samples(100),
      sim.original.p2.meas.throughput_samples(100));
  std::printf("coupled-bottleneck test: %s (ratio %.2f, corr %+.2f)\n",
              coupled.coupled ? "COUPLED" : "not coupled", coupled.ratio,
              coupled.correlation);
  return 0;
}

int cmd_wild(const Args& args, obs::ObservedSweep& observed) {
  const int isp_index = static_cast<int>(args.num("isp", 0));
  const auto isps = default_isp_models();
  if (isp_index < 0 || isp_index >= static_cast<int>(isps.size())) {
    std::fprintf(stderr, "--isp must be 0..4\n");
    return 2;
  }
  WildConfig cfg;
  cfg.isp = isps[static_cast<std::size_t>(isp_index)];
  cfg.seed = static_cast<std::uint64_t>(args.num("seed", 7));
  cfg.app = args.get("app", "Netflix");
  const auto plan = fault_plan_from(args);
  if (plan.has_value()) {
    cfg.fault_plan = &*plan;
    std::printf("fault plan: %s (seed %llu)\n", plan->name.c_str(),
                static_cast<unsigned long long>(plan->seed));
  }
  const auto t_diff = build_wild_t_diff(cfg, 12);
  // The reported runner fills the report (stages, verdict, injection) and
  // absorbs its metrics into the CLI recorder.
  const auto res = run_wild_test_reported(cfg, t_diff,
                                          /*sanity_check=*/args.has("sanity"),
                                          "wehey_cli_wild");
  const auto& out = res.outcome;
  std::printf("%s %s: confirmed=%s localized=%s (throughput p=%.3g)\n",
              cfg.isp.name.c_str(), cfg.app.c_str(),
              out.localization.confirmation_passed ? "yes" : "no",
              out.localized ? "YES" : "no",
              out.localization.throughput.p_value);
  if (out.injection.total() > 0) {
    std::printf("injected faults:");
    for (const auto& [kind, count] : out.injection.by_kind()) {
      if (count > 0) std::printf(" %s=%d", kind, count);
    }
    std::printf(" (%d phase%s hit)\n", out.faulted_phases,
                out.faulted_phases == 1 ? "" : "s");
  }
  observed.report() = res.report;
  return 0;
}

int cmd_session(const Args& args, obs::ObservedSweep& observed) {
  replay::SessionConfig cfg;
  cfg.scenario = default_scenario(
      args.get("app", "Netflix"),
      static_cast<std::uint64_t>(args.num("seed", 2)));
  cfg.route_churn = args.has("churn");
  cfg.user_consents = !args.has("decline");
  const auto plan = fault_plan_from(args);
  if (plan.has_value()) {
    cfg.fault_plan = *plan;
    std::printf("fault plan: %s (seed %llu)\n", plan->name.c_str(),
                static_cast<unsigned long long>(plan->seed));
  }
  HistoryConfig hist;
  hist.replays = 6;
  cfg.t_diff_history = build_t_diff_history(cfg.scenario, hist);
  topology::TopologyDatabase db;
  replay::seed_topology_database(cfg.scenario, db);
  const auto result = replay::run_session(cfg, db);
  for (const auto& ev : result.events) {
    std::printf("[%9.3fs] %s\n", to_seconds(ev.at), ev.what.c_str());
  }
  std::printf("outcome: %s\n", replay::to_string(result.outcome));
  observed.report() =
      replay::make_run_report(cfg, result, "wehey_cli_session");
  return 0;
}

int cmd_topology(const Args& args) {
  Rng rng(static_cast<std::uint64_t>(args.num("seed", 1)));
  topology::SyntheticConfig cfg;
  cfg.num_clients = static_cast<std::size_t>(args.num("clients", 500));
  const auto ds = topology::generate_mlab_dataset(cfg, rng);
  topology::TopologyConstructor tc;
  const auto entries = tc.construct(ds.records);
  std::printf("records=%zu discarded(incomplete=%zu aliased=%zu) "
              "destinations=%zu with-topology=%zu\n",
              tc.stats().input_records, tc.stats().discarded_incomplete,
              tc.stats().discarded_aliased, tc.stats().destinations,
              tc.stats().destinations_with_topology);
  return 0;
}

/// Checkpointed sweep: `runs` full 4-phase experiments into one
/// sweep_report.v1 (--out, else stdout), one flushed journal line per
/// completed run. With --resume, journaled runs are re-absorbed instead of
/// re-run, so the sweep report is byte-identical to an uninterrupted
/// run's.
int run_checkpointed_sweep(const Args& args, obs::ObservedSweep& observed,
                           const std::string& app, std::size_t runs,
                           bool fp_mode) {
  const auto plan = fault_plan_from(args);
  const std::string ckpt = args.get("checkpoint", "");
  std::string error;
  if (!ckpt.empty() && !observed.checkpoint(ckpt, args.has("resume"),
                                            &error)) {
    std::fprintf(stderr, "sweep: %s\n", error.c_str());
    return 1;
  }
  observed.sweep_to(args.get("out", ""));
  observed.expect_runs(runs);
  HistoryConfig hist;
  hist.replays = 6;
  for (std::size_t i = 0; i < runs; ++i) {
    char run_id[64];
    std::snprintf(run_id, sizeof(run_id), "wehey_cli_sweep.%s.r%03zu",
                  app.c_str(), i);
    FullExperimentResult res;
    if (!observed.completed(run_id)) {
      auto cfg = default_scenario(app, 7000 + i);
      if (fp_mode) cfg.placement = Placement::NonCommonLinks;
      if (plan.has_value()) cfg.fault_plan = &*plan;
      res = run_full_experiment_reported(
          cfg, build_t_diff_history(cfg, hist), run_id);
      res.report.cell = app;
      std::fprintf(stderr, "%s: %s%s%s\n", run_id,
                   res.report.verdict.c_str(),
                   res.report.reason.empty() ? "" : " — ",
                   res.report.reason.c_str());
    }
    observed.absorb(run_id, res.report, &res.metrics);
  }
  return 0;
}

int cmd_sweep(const Args& args, obs::ObservedSweep& observed) {
  const auto app = args.get("app", "Netflix");
  const auto runs = static_cast<std::size_t>(args.num("runs", 6));
  const bool fp_mode = args.has("fp");
  if (args.has("checkpoint") || args.has("resume") || args.has("out")) {
    return run_checkpointed_sweep(args, observed, app, runs, fp_mode);
  }
  int detected = 0, confirmed = 0;
  for (std::size_t i = 0; i < runs; ++i) {
    auto cfg = default_scenario(app, 7000 + i);
    if (fp_mode) cfg.placement = Placement::NonCommonLinks;
    const auto sim = run_simultaneous_experiment(cfg);
    if (!sim.differentiation_confirmed && !fp_mode) continue;
    ++confirmed;
    detected += core::loss_trend_correlation(
                    sim.original.p1.meas, sim.original.p2.meas,
                    milliseconds(cfg.rtt1_ms))
                    .common_bottleneck;
  }
  if (fp_mode) {
    std::printf("%s: FP %d/%d\n", app.c_str(), detected, confirmed);
  } else {
    std::printf("%s: detected %d/%d confirmed (FN %d)\n", app.c_str(),
                detected, confirmed, confirmed - detected);
  }
  return 0;
}

int cmd_full(const Args& args) {
  auto cfg = scenario_from(args);
  const auto plan = fault_plan_from(args);
  if (plan.has_value()) {
    cfg.fault_plan = &*plan;
    std::fprintf(stderr, "fault plan: %s (seed %llu)\n", plan->name.c_str(),
                 static_cast<unsigned long long>(plan->seed));
  }
  HistoryConfig hist;
  hist.replays = 6;
  const auto t_diff = build_t_diff_history(cfg, hist);
  const auto res = run_full_experiment_reported(cfg, t_diff,
                                                "wehey_cli_full");
  std::fprintf(stderr, "verdict: %s%s%s\n", res.report.verdict.c_str(),
               res.report.reason.empty() ? "" : " — ",
               res.report.reason.c_str());
  const std::string json = res.report.to_json(&res.metrics);
  std::string path = args.get("out", "");
  if (path.empty()) path = obs::report_path_from_env("wehey_cli_full");
  if (path.empty()) {
    // Pipe-friendly: the report itself on stdout, commentary on stderr.
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  if (!obs::write_report_file(path, json)) {
    std::fprintf(stderr, "report: FAILED to write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "report: %s\n", path.c_str());
  return 0;
}

int cmd_trace(const Args& args) {
  // A short scenario with an ascii packet trace of the common link.
  auto cfg = scenario_from(args);
  cfg.replay_duration = seconds(3);
  const auto derived = derive(cfg);
  netsim::Simulator sim;
  Rng rng(cfg.seed);
  FigureOneNetwork net(sim, derived.net, rng);
  netsim::PacketTracer tracer;
  tracer.set_capacity(
      static_cast<std::size_t>(args.num("max-events", 200)));
  tracer.attach(net.common_link(), "l_c");

  Rng trace_rng(cfg.seed * 0x9e3779b9ULL + 17);
  auto t = trace::make_tcp_app_trace(cfg.base_trace_duration, trace_rng);
  t = trace::extend(t, cfg.replay_duration);
  transport::TcpConfig tcp;
  net.start_tcp_replay(1, t, 0, tcp);
  net.start_tcp_replay(2, t, milliseconds(5), tcp);
  net.run(cfg.replay_duration, seconds(1));
  tracer.dump(stdout);
  return 0;
}

/// Read one per-run report file back; prints its own errors.
bool load_run_report(const std::string& path, obs::RunReport& report,
                     obs::MetricsRegistry& metrics) {
  std::string text;
  if (!obs::read_file(path, text)) {
    std::fprintf(stderr, "merge: cannot read %s\n", path.c_str());
    return false;
  }
  obs::JsonValue doc;
  std::string error;
  if (!obs::json_parse(text, doc, &error)) {
    std::fprintf(stderr, "merge: %s: parse error: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  if (!obs::RunReport::from_json(doc, report, metrics, &error)) {
    std::fprintf(stderr, "merge: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

/// Offline sweep aggregation: per-run report files in, one
/// wehey.sweep_report.v1 out. Byte-identical to the in-process sweep the
/// emitting binary writes under WEHEY_REPORT_DIR over the same runs — CI
/// diffs the two.
int cmd_merge(int argc, char** argv) {
  std::vector<std::string> files;
  std::string out_path;
  std::string name;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--name" && i + 1 < argc) {
      name = argv[++i];
    } else if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "merge: unknown flag %s\n", a.c_str());
      return 2;
    } else {
      files.push_back(a);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: wehey_cli merge FILE... [--out PATH] [--name "
                 "SWEEP]\n");
    return 2;
  }
  std::optional<obs::SweepAggregator> agg;
  for (const auto& path : files) {
    obs::RunReport report;
    obs::MetricsRegistry metrics;
    if (!load_run_report(path, report, metrics)) return 1;
    if (!agg.has_value()) {
      // Default sweep name: the first run name up to its first '.' —
      // per-run names follow "<sweep>.<cell>.r<index>".
      if (name.empty()) name = report.run.substr(0, report.run.find('.'));
      agg.emplace(name);
    }
    agg->add_run(report, &metrics);
  }
  const std::string json = agg->to_json();
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  if (!obs::write_report_file(out_path, json)) {
    std::fprintf(stderr, "merge: FAILED to write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "sweep report: %s (%zu runs)\n", out_path.c_str(),
               agg->runs());
  return 0;
}

/// Split a "REGEX=VALUE" flag operand at its last '='.
bool split_key_value(const std::string& arg, std::string& key,
                     double& value) {
  const auto eq = arg.rfind('=');
  if (eq == std::string::npos || eq == 0) return false;
  key = arg.substr(0, eq);
  value = std::atof(arg.c_str() + eq + 1);
  return true;
}

/// Regression gate: diff a candidate report (run or sweep) against a
/// committed baseline with relative tolerances. Exit 0 = within
/// tolerance, 1 = drift, 2 = usage/parse error.
int cmd_compare(int argc, char** argv) {
  std::vector<std::string> files;
  obs::CompareOptions opts;
  bool list_keys = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    std::string key;
    double value = 0.0;
    if (a == "--list-keys") {
      list_keys = true;
    } else if (a == "--tol" && i + 1 < argc) {
      opts.tolerance = std::atof(argv[++i]);
    } else if (a == "--tol-key" && i + 1 < argc) {
      if (!split_key_value(argv[++i], key, value)) {
        std::fprintf(stderr, "compare: --tol-key wants REGEX=TOL\n");
        return 2;
      }
      opts.key_tolerances.emplace_back(key, value);
    } else if (a == "--ignore" && i + 1 < argc) {
      opts.ignore.emplace_back(argv[++i]);
    } else if (a == "--min-key" && i + 1 < argc) {
      if (!split_key_value(argv[++i], key, value)) {
        std::fprintf(stderr, "compare: --min-key wants REGEX=BOUND\n");
        return 2;
      }
      opts.min_keys.emplace_back(key, value);
    } else if (a == "--require-key" && i + 1 < argc) {
      opts.require_keys.emplace_back(argv[++i]);
    } else if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "compare: unknown flag %s\n", a.c_str());
      return 2;
    } else {
      files.push_back(a);
    }
  }
  // Triage aid: print the flattened key space the regex flags match
  // against (--require-key / --min-key patterns that silently match
  // nothing are the usual failure). Keys come from the *last* file —
  // the candidate in a two-file invocation.
  if (list_keys) {
    if (files.empty() || files.size() > 2) {
      std::fprintf(stderr,
                   "usage: wehey_cli compare --list-keys [BASELINE] "
                   "CANDIDATE\n");
      return 2;
    }
    std::string text;
    if (!obs::read_file(files.back(), text)) {
      std::fprintf(stderr, "compare: cannot read %s\n", files.back().c_str());
      return 2;
    }
    obs::JsonValue doc;
    std::string error;
    if (!obs::json_parse(text, doc, &error)) {
      std::fprintf(stderr, "compare: %s: parse error: %s\n",
                   files.back().c_str(), error.c_str());
      return 2;
    }
    for (const auto& key : obs::flatten_keys(doc)) {
      std::printf("%s\n", key.c_str());
    }
    return 0;
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: wehey_cli compare BASELINE CANDIDATE [--tol X] "
                 "[--tol-key RE=X]... [--ignore RE]... [--min-key "
                 "RE=X]... [--require-key RE]... [--list-keys]\n");
    return 2;
  }
  obs::JsonValue docs[2];
  for (int i = 0; i < 2; ++i) {
    std::string text;
    if (!obs::read_file(files[static_cast<std::size_t>(i)], text)) {
      std::fprintf(stderr, "compare: cannot read %s\n",
                   files[static_cast<std::size_t>(i)].c_str());
      return 2;
    }
    std::string error;
    if (!obs::json_parse(text, docs[i], &error)) {
      std::fprintf(stderr, "compare: %s: parse error: %s\n",
                   files[static_cast<std::size_t>(i)].c_str(),
                   error.c_str());
      return 2;
    }
  }
  const auto result = obs::compare_reports(docs[0], docs[1], opts);
  for (const auto& note : result.notes) {
    std::fprintf(stderr, "note: %s\n", note.c_str());
  }
  for (const auto& failure : result.failures) {
    std::printf("FAIL: %s\n", failure.c_str());
  }
  if (result.ok) {
    std::printf("compare: OK (%s vs %s, tol %.3g)\n", files[1].c_str(),
                files[0].c_str(), opts.tolerance);
    return 0;
  }
  std::printf("compare: %zu metric(s) out of tolerance\n",
              result.failures.size());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: wehey_cli <testbed|wild|session|topology|sweep|"
                 "trace|full|inspect|merge|compare> [--flags]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "inspect") {
    // Positional file arguments, no observation setup: a pure reader.
    if (argc < 3) {
      std::fprintf(stderr,
                   "usage: wehey_cli inspect "
                   "<report.json|sweep.json|trace.json>...\n");
      return 2;
    }
    int rc = 0;
    for (int i = 2; i < argc; ++i) {
      if (!obs::inspect_file(argv[i], stdout)) rc = 1;
    }
    return rc;
  }
  if (cmd == "merge") return cmd_merge(argc, argv);
  if (cmd == "compare") return cmd_compare(argc, argv);
  const Args args(argc, argv, 2);
  // The trace, the runtime sidecar and the command's report or sweep. Only
  // wild and session fill this report; left unnamed, it is not written.
  obs::ObservedSweep observed("wehey_cli_" + cmd);
  observed.report().run.clear();
  int rc = 2;
  if (cmd == "testbed") {
    rc = cmd_testbed(args);
  } else if (cmd == "wild") {
    rc = cmd_wild(args, observed);
  } else if (cmd == "session") {
    rc = cmd_session(args, observed);
  } else if (cmd == "topology") {
    rc = cmd_topology(args);
  } else if (cmd == "sweep") {
    rc = cmd_sweep(args, observed);
  } else if (cmd == "trace") {
    rc = cmd_trace(args);
  } else if (cmd == "full") {
    rc = cmd_full(args);
  } else {
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  }
  if (!observed.finish() && rc == 0) rc = 1;
  return rc;
}
