// perfbench_driver: the repository benchmark. Runs one whole WeHeY paper
// grid through the public experiment entry points, checks every run's
// verdict against the stored expectation, and prints the end-to-end
// metrics; with --trace 1 it prints the per-layer metrics instead.
//
//   perfbench_driver --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--threads T] [--expected DIR] [--record]
//                    [--trace-out FILE]
//
// Every metric is printed by name with its unit; the last stdout line is
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// and the exit status is 0 iff correct. perfbench/README.md describes the
// workloads, the metrics and which layer should move which metric.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/localizer.hpp"
#include "experiments/history.hpp"
#include "experiments/params.hpp"
#include "experiments/scenario.hpp"
#include "experiments/wild.hpp"
#include "obs/aggregate.hpp"
#include "obs/inspect.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/runtime.hpp"
#include "parallel/thread_pool.hpp"
#include "spans.hpp"
#include "trace/apps.hpp"
#include "trace/background.hpp"

extern char** environ;

namespace {

using namespace wehey;
using namespace wehey::experiments;
using perfbench::now_ns;
using perfbench::Span;
using perfbench::SpanLog;
using Scope = perfbench::SpanLog::Scope;

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

// ------------------------------------------------------------- workloads

/// Test seeds come in this many seed sets, each with its own stored
/// verdicts; set 0 is the committed seeds. An untraced run passes over the
/// grid once per set, starting with set (seed mod kSeedSets), so every run
/// does the same work in a seed-dependent order.
constexpr std::uint64_t kSeedSets = 5;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;

// Table 1 FAST grid, as bench_table1_wild runs it.
constexpr std::size_t kWildBasic = 12;
constexpr std::size_t kWildSanity = 3;
constexpr std::size_t kWildTdiffReplays = 10;
// §6 cells: runs per cell and T_diff replays per cell. Netflix runs take
// ~3x as long as Skype runs; with more of them the run-time median falls
// inside the Netflix cluster instead of on the gap between the two.
constexpr std::size_t kNetflixRuns = 3;
constexpr std::size_t kSkypeRuns = 1;
constexpr std::size_t kCollectiveTdiffReplays = 5;

enum class Kind { kWild, kCollective };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  trace::BackgroundMode bg;
  unsigned max_threads;
  /// Wall of one round (a pass over each seed set's grid) on the reference
  /// host (4-core x86-64, Release build). A run measures
  /// max(1, floor(--seconds / nominal_round_s)) rounds, so two commits of
  /// a comparison always do the same work.
  double nominal_round_s;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"wild_grid", Kind::kWild, trace::BackgroundMode::kPacket, 4, 20.0},
    {"collective_grid", Kind::kCollective, trace::BackgroundMode::kPacket, 1,
     20.0},
    {"collective_fluid", Kind::kCollective, trace::BackgroundMode::kFluid, 1,
     12.0},
};

struct Test {
  std::string id;  ///< run id, unique within the grid
  std::size_t cell = 0;
  bool sanity = false;  ///< wild only: the §5 third concurrent replay
  WildConfig wild;
  ScenarioConfig scenario;
};

struct Grid {
  std::vector<std::string> cells;
  /// Per cell. T_diff is the cell's history, so all seed sets share it.
  std::vector<std::vector<double>> t_diff;
  std::size_t tdiff_phases = 0;
  std::vector<std::vector<Test>> sets;  ///< the tests of each seed set
};

// Every config field is set here, so nothing depends on a default that a
// later change (or the environment, via kEnv) could move.
WildConfig wild_config(const IspModel& isp, std::uint64_t seed) {
  WildConfig c;
  c.isp = isp;
  c.app = "Netflix";
  c.replay_duration = seconds(45);
  c.rtt_ms = 50.0;
  c.bg_rate_per_path = kbps(300);
  c.seed = seed;
  c.bg_mode = trace::BackgroundMode::kPacket;
  c.fault_plan = nullptr;
  return c;
}

ScenarioConfig collective_config(const std::string& app, Placement placement,
                                 trace::BackgroundMode bg,
                                 std::uint64_t seed) {
  ScenarioConfig c;
  c.app = app;
  c.replay_duration = seconds(45);
  c.base_trace_duration = seconds(15);
  c.rtt1_ms = kDefaultRtt1Ms;
  c.rtt2_ms = kDefaultRtt2Ms;
  c.placement = placement;
  c.input_rate_factor = kDefaultInputRateFactor;
  c.queue_burst_factor = kDefaultQueueBurstFactor;
  c.bg_diff_fraction = kDefaultBgDiffFraction;
  c.nc_utilization = kDefaultNcUtilization;
  c.bg_rate_per_path = mbps(4.0);
  c.modified_traces = true;
  c.tcp_connections = 1;
  c.tcp_cc = transport::CongestionControl::Cubic;
  c.spoof_same_flow = false;
  c.seed = seed;
  c.bg_mode = bg;
  c.fault_plan = nullptr;
  return c;
}

/// Configs of every seed set and the cells' T_diff histories. The T_diff
/// syntheses are the set-up work; each is one experiments.tdiff span.
Grid build_grid(const WorkloadSpec& w, SpanLog& log) {
  Grid g;
  g.sets.resize(kSeedSets);
  if (w.kind == Kind::kWild) {
    const auto& services = trace::tcp_app_names();
    for (const auto& isp : default_isp_models()) {
      const std::size_t cell = g.cells.size();
      g.cells.push_back(isp.name);
      const WildConfig base = wild_config(isp, 1);
      {
        Scope s(log, "experiments.tdiff");
        g.t_diff.push_back(build_wild_t_diff(base, kWildTdiffReplays));
      }
      g.tdiff_phases += kWildTdiffReplays;
      for (std::uint64_t set = 0; set < kSeedSets; ++set) {
        for (std::size_t i = 0; i < kWildBasic + kWildSanity; ++i) {
          Test t;
          t.cell = cell;
          t.sanity = i >= kWildBasic;
          t.wild = base;
          if (t.sanity) {
            t.wild.seed = 5000 + (i - kWildBasic) * 13 + 100000 * set;
          } else {
            t.wild.seed = 1000 + i * 17 + 100000 * set;
            t.wild.app = services[i % services.size()];
          }
          char id[32];
          std::snprintf(id, sizeof(id), "%s.r%03zu", isp.name.c_str(), i);
          t.id = id;
          g.sets[set].push_back(std::move(t));
        }
      }
    }
    return g;
  }
  for (const char* app : {"Netflix", "Skype"}) {
    for (const Placement placement :
         {Placement::CommonLink, Placement::NonCommonLinks}) {
      const std::size_t cell = g.cells.size();
      g.cells.push_back(std::string(app) +
                        (placement == Placement::CommonLink ? ".common"
                                                            : ".noncommon"));
      const ScenarioConfig base = collective_config(app, placement, w.bg, 7);
      {
        Scope s(log, "experiments.tdiff");
        g.t_diff.push_back(build_t_diff_history(
            base, HistoryConfig{.replays = kCollectiveTdiffReplays}));
      }
      g.tdiff_phases += kCollectiveTdiffReplays;
      const std::size_t runs =
          std::string(app) == "Netflix" ? kNetflixRuns : kSkypeRuns;
      for (std::uint64_t set = 0; set < kSeedSets; ++set) {
        for (std::size_t j = 0; j < runs; ++j) {
          Test t;
          t.cell = cell;
          t.scenario = base;
          t.scenario.seed = 100 + j + 1000 * set;
          t.id = g.cells[cell] + ".r" + std::to_string(j);
          g.sets[set].push_back(std::move(t));
        }
      }
    }
  }
  return g;
}

// ------------------------------------------------------------ one test

/// Deterministic work counts, read from the run reports' registries. They
/// are pure functions of the inputs: equal across passes, traced and
/// untraced, and thread counts.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;  ///< packets delivered, summed over hops
  std::uint64_t drops = 0;      ///< queue.*.drop.*
  std::uint64_t fluid_steps = 0;
  std::uint64_t tcp_flows = 0;
  std::uint64_t retx = 0;
  std::uint64_t rto = 0;
  double heap_peak = 0.0;

  void add(const obs::MetricsRegistry& m) {
    for (const auto& [name, c] : m.counters()) {
      const std::uint64_t v = c.value();
      if (name == "sim.events") {
        events += v;
      } else if (name == "fluid.steps") {
        fluid_steps += v;
      } else if (name == "tcp.flows") {
        tcp_flows += v;
      } else if (name == "tcp.retx_segments") {
        retx += v;
      } else if (name == "tcp.rto_timeouts") {
        rto += v;
      } else if (name.starts_with("queue.") &&
                 name.find(".drop.") != std::string::npos) {
        drops += v;
      } else if (name.starts_with("net.") &&
                 name.ends_with(".delivered_packets")) {
        delivered += v;
      }
    }
    const auto peak = m.gauges().find("sim.heap_depth_peak");
    if (peak != m.gauges().end() && peak->second.seen()) {
      heap_peak = std::max(heap_peak, peak->second.max());
    }
  }
  bool operator==(const Counts&) const = default;
};

struct Outcome {
  obs::RunReport report;
  obs::MetricsRegistry metrics;
  bool budget_exhausted = false;
  double wall_ms = 0.0;  ///< the entry-point call
  // Traced pass only.
  SpanLog spans;
  Counts outside;               ///< the phases re-run from outside
  std::string outside_verdict;  ///< localize() on the re-assembled input
  std::size_t background_flows = 0;
  std::size_t report_bytes = 0;
};

Outcome run_test(Kind kind, const Grid& g, const Test& t) {
  Outcome o;
  const std::uint64_t t0 = now_ns();
  if (kind == Kind::kWild) {
    auto r = run_wild_test_reported(t.wild, g.t_diff[t.cell], t.sanity, t.id);
    o.report = std::move(r.report);
    o.metrics = std::move(r.metrics);
  } else {
    auto r = run_full_experiment_reported(t.scenario, g.t_diff[t.cell], t.id);
    o.report = std::move(r.report);
    o.metrics = std::move(r.metrics);
    o.report.cell = g.cells[t.cell];  // the §6 runner leaves it to the grid
  }
  o.wall_ms = static_cast<double>(now_ns() - t0) / 1e6;
  o.budget_exhausted = o.report.verdict == obs::kBudgetExhaustedVerdict;
  return o;
}

// --------------------------------------------- layers timed from outside
//
// The traced pass re-runs each layer's public functions on the test's own
// inputs. run_wild_phase / run_phase build those inputs in private helpers
// (src/experiments/wild.cpp, scenario.cpp); the recipes below mirror them
// with the same configs, seeds and RNG stream order, so the re-timed work
// is the work the test did.

constexpr Phase kPhases[] = {Phase::SimOriginal, Phase::SimInverted,
                             Phase::SingleOriginal, Phase::SingleInverted};
constexpr Time kDrainGrace = seconds(3);

std::uint64_t phase_seed(std::uint64_t seed, Phase phase) {
  return seed * 1000003ULL + static_cast<std::uint64_t>(phase) * 7919ULL;
}

bool is_original(Phase p) {
  return p == Phase::SimOriginal || p == Phase::SingleOriginal;
}

bool is_simultaneous(Phase p) {
  return p == Phase::SimOriginal || p == Phase::SimInverted;
}

/// A wild test's replayed trace: a pure function of (seed, app).
trace::AppTrace wild_trace(const WildConfig& cfg, bool inverted) {
  std::uint64_t app_hash = 1469598103934665603ULL;
  for (char ch : cfg.app) {
    app_hash = (app_hash ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
  }
  Rng rng(cfg.seed * 0x9e3779b9ULL ^ app_hash);
  const auto& known = trace::tcp_app_names();
  const bool is_known =
      std::find(known.begin(), known.end(), cfg.app) != known.end();
  trace::AppTrace t =
      trace::make_tcp_app_trace(is_known ? cfg.app : "Netflix", seconds(15), rng);
  if (inverted) t = trace::bit_invert(t);
  return trace::extend(t, cfg.replay_duration);
}

/// A §6 scenario's base trace: a pure function of (seed, app).
trace::AppTrace scenario_trace(const ScenarioConfig& cfg) {
  Rng rng(cfg.seed * 0x9e3779b9ULL + 17);
  const auto& tcp = trace::tcp_app_names();
  if (std::find(tcp.begin(), tcp.end(), cfg.app) != tcp.end()) {
    return trace::make_tcp_app_trace(cfg.app, cfg.base_trace_duration, rng);
  }
  return trace::make_udp_app_trace(cfg.app, cfg.base_trace_duration, rng);
}

trace::AppTrace prepare_replay(const trace::AppTrace& t,
                               const ScenarioConfig& cfg, Rng& rng) {
  trace::AppTrace out = trace::extend(t, cfg.replay_duration);
  if (cfg.modified_traces && out.transport == trace::Transport::Udp) {
    out = trace::poissonize(out, rng);
  }
  return out;
}

/// Both paths' background workloads (and fluid profiles); returns the
/// number of flows generated.
std::size_t retime_background(const trace::BackgroundConfig& bg,
                              trace::BackgroundMode mode,
                              const double* diff_fraction, Rng& rng,
                              int parent, SpanLog& log) {
  std::vector<trace::BackgroundFlow> flows[2];
  {
    Scope s(log, "trace.background", parent);
    for (auto& f : flows) {
      f = trace::generate_background(bg, rng);
      if (diff_fraction != nullptr) {
        trace::mark_differentiated(f, *diff_fraction, rng);
      }
    }
  }
  if (mode == trace::BackgroundMode::kFluid) {
    Scope s(log, "trace.fluid_profile", parent);
    for (const auto& f : flows) (void)trace::fluid_profile(f, bg);
  }
  return flows[0].size() + flows[1].size();
}

std::size_t retime_wild_inputs(const WildConfig& cfg, Phase phase,
                               bool third_replay, int parent, SpanLog& log) {
  Rng rng(phase_seed(cfg.seed, phase));
  (void)rng.split();  // FigureOneNetwork's access-link stream
  trace::BackgroundConfig bg;
  bg.target_rate = cfg.bg_rate_per_path;
  bg.duration = cfg.replay_duration + kDrainGrace;
  bg.flows_per_second = 2.0;
  const std::size_t flows =
      retime_background(bg, cfg.bg_mode, nullptr, rng, parent, log);
  Scope s(log, "trace.app", parent);
  (void)wild_trace(cfg, false);  // sizes the network
  (void)wild_trace(cfg, !is_original(phase));
  if (third_replay) {
    WildConfig third = cfg;
    third.seed = cfg.seed + 9999;
    third.app = "Twitch";
    (void)wild_trace(third, false);
  }
  return flows;
}

std::size_t retime_scenario_inputs(const ScenarioConfig& cfg, Phase phase,
                                   int parent, SpanLog& log) {
  Rng rng(phase_seed(cfg.seed, phase));
  trace::BackgroundConfig bg;
  bg.target_rate = cfg.bg_rate_per_path;
  bg.duration = cfg.replay_duration + kDrainGrace;
  bg.flows_per_second = std::max(1.5, cfg.bg_rate_per_path / mbps(1.0) * 1.2);
  const std::size_t flows = retime_background(
      bg, cfg.bg_mode, &cfg.bg_diff_fraction, rng, parent, log);
  Scope s(log, "trace.app", parent);
  (void)scenario_trace(cfg);  // derive() sizes the network
  trace::AppTrace t = scenario_trace(cfg);
  if (!is_original(phase)) t = trace::bit_invert(t);
  const trace::AppTrace replay = prepare_replay(t, cfg, rng);
  if (replay.transport == trace::Transport::Udp && is_simultaneous(phase)) {
    (void)prepare_replay(t, cfg, rng);  // the second server re-times its own
  }
  return flows;
}

/// localize() on the assembled input, then the detectors it reached, each
/// re-run on the same input as a child span. Returns the verdict.
std::string retime_core(const core::LocalizationInput& in, std::uint64_t seed,
                        int parent, SpanLog& log) {
  const core::LocalizerConfig cfg;
  core::LocalizationResult res;
  int localize_span = -1;
  {
    Scope s(log, "core.localize", parent);
    localize_span = s.id();
    Rng rng(seed);
    res = core::localize(in, rng, cfg);
  }
  {
    Scope s(log, "core.wehe", localize_span);
    (void)core::detect_differentiation(in.p1_original, in.p1_inverted,
                                       cfg.wehe);
    (void)core::detect_differentiation(in.p2_original, in.p2_inverted,
                                       cfg.wehe);
  }
  if (res.confirmation_passed) {
    Scope s(log, "core.throughput_cmp", localize_span);
    const auto x = in.p0_original.throughput_samples(cfg.wehe.intervals);
    const auto y = core::aggregate_samples(
        in.p1_original.throughput_samples(cfg.wehe.intervals),
        in.p2_original.throughput_samples(cfg.wehe.intervals));
    Rng rng(seed);
    (void)core::throughput_comparison(x, y, in.t_diff_history, rng,
                                      cfg.throughput);
  }
  if (res.confirmation_passed && !res.throughput.common_bottleneck) {
    Scope s(log, "core.loss_corr", localize_span);
    (void)core::loss_trend_correlation(in.p1_original, in.p2_original,
                                       res.base_rtt_used, cfg.loss);
  }
  return core::to_string(res.verdict);
}

/// The four phases re-run one at a time (each an experiments.phase span
/// with its trace inputs as children), then the core on their results.
void retime_layers(Kind kind, const Grid& g, const Test& t, int test_span,
                   SpanLog& log, Outcome& o) {
  const bool wild = kind == Kind::kWild;
  std::vector<PhaseReport> phases(4);
  obs::Recorder rec(/*metrics_on=*/true, /*trace_on=*/false);
  for (std::size_t i = 0; i < 4; ++i) {
    const bool third = wild && t.sanity && i == 0;
    int phase_span = -1;
    {
      obs::ScopedRecorder bind(&rec);
      Scope s(log, "experiments.phase", test_span);
      phase_span = s.id();
      phases[i] = wild ? run_wild_phase(t.wild, kPhases[i], third)
                       : run_phase(t.scenario, kPhases[i]);
    }
    o.background_flows +=
        wild ? retime_wild_inputs(t.wild, kPhases[i], third, phase_span, log)
             : retime_scenario_inputs(t.scenario, kPhases[i], phase_span, log);
  }
  o.outside.add(rec.metrics());

  core::LocalizationInput in;
  in.p1_original = phases[0].p1.meas;
  in.p2_original = phases[0].p2.meas;
  in.p1_inverted = phases[1].p1.meas;
  in.p2_inverted = phases[1].p2.meas;
  in.p0_original = phases[2].p1.meas;
  in.p0_inverted = phases[3].p1.meas;
  in.t_diff_history = g.t_diff[t.cell];
  in.base_rtt = wild ? milliseconds(t.wild.rtt_ms)
                     : milliseconds(std::max(t.scenario.rtt1_ms,
                                             t.scenario.rtt2_ms));
  const std::uint64_t seed =
      wild ? t.wild.seed * 2654435761ULL + 101
           : t.scenario.seed * 2654435761ULL + 9;
  o.outside_verdict = retime_core(in, seed, test_span, log);
}

Outcome run_traced_test(Kind kind, const Grid& g, const Test& t) {
  SpanLog log(t.id);
  const int run_span = log.begin("run", -1);
  const int test_span = log.begin("experiments.test", run_span);
  Outcome o = run_test(kind, g, t);
  log.end(test_span);
  if (!o.budget_exhausted) retime_layers(kind, g, t, test_span, log, o);
  {
    Scope s(log, "obs.report", run_span);
    o.report_bytes = o.report.to_json(&o.metrics).size();
  }
  log.end(run_span);
  o.spans = std::move(log);
  return o;
}

// ------------------------------------------------------------ one pass

struct Audit {
  double tp = 0, fp = 0, fn = 0, tn = 0, skipped = 0;
  double accuracy = 0.0;
};

struct Pass {
  std::vector<Outcome> runs;
  double wall_s = 0.0;
  Audit audit;
  SpanLog spans{"pass"};
};

double json_num(const obs::JsonValue* v, const char* key) {
  const obs::JsonValue* f = v != nullptr ? v->find(key) : nullptr;
  return f != nullptr ? f->num_or(0.0) : 0.0;
}

/// Every test of seed set `set` on `threads` contexts, then the sweep
/// aggregate (the grid's audit) in index order.
Pass run_pass(const WorkloadSpec& w, const Grid& g, std::uint64_t set,
              unsigned threads, bool traced) {
  Pass p;
  const std::vector<Test>& tests = g.sets[set];
  const std::uint64_t t0 = now_ns();
  p.runs = parallel::parallel_map(
      tests.size(),
      [&](std::size_t i) {
        return traced ? run_traced_test(w.kind, g, tests[i])
                      : run_test(w.kind, g, tests[i]);
      },
      threads);
  obs::SweepAggregator agg(w.name);
  for (auto& r : p.runs) {
    if (traced) {
      Scope s(r.spans, "obs.aggregate", 0);
      agg.add_run(r.report, &r.metrics);
    } else {
      agg.add_run(r.report, &r.metrics);
    }
  }
  std::string json;
  {
    Scope s(p.spans, "obs.aggregate");
    json = agg.to_json();
  }
  p.wall_s = seconds_since(t0);
  obs::JsonValue doc;
  if (obs::json_parse(json, doc)) {
    const obs::JsonValue* audit = doc.find("audit");
    const obs::JsonValue* grid = audit != nullptr ? audit->find("grid") : nullptr;
    p.audit = {json_num(grid, "tp"),      json_num(grid, "fp"),
               json_num(grid, "fn"),      json_num(grid, "tn"),
               json_num(grid, "skipped"), json_num(grid, "accuracy")};
  }
  return p;
}

// -------------------------------------------------- expected verdicts

/// Verdict and audit class of every run of one seed set. The grid audit
/// is a function of the classes, so it needs no check of its own.
struct Expected {
  std::map<std::string, std::pair<std::string, std::string>> runs;
};

std::string expected_path(const std::string& dir, const WorkloadSpec& w,
                          std::uint64_t set) {
  return dir + "/" + w.name + "/set" + std::to_string(set) + ".json";
}

bool load_expected(const std::string& path, Expected& e) {
  std::string text;
  obs::JsonValue doc;
  std::string error;
  if (!obs::read_file(path, text) || !obs::json_parse(text, doc, &error)) {
    std::fprintf(stderr, "perfbench: cannot read %s %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  const obs::JsonValue* runs = doc.find("runs");
  if (runs == nullptr || runs->object.empty()) {
    std::fprintf(stderr, "perfbench: %s lists no runs\n", path.c_str());
    return false;
  }
  for (const auto& [id, run] : runs->object) {
    const obs::JsonValue* verdict = run.find("verdict");
    const obs::JsonValue* cls = run.find("audit");
    e.runs[id] = {verdict != nullptr ? verdict->str : "",
                  cls != nullptr ? cls->str : ""};
  }
  return true;
}

bool write_expected(const std::string& path, const WorkloadSpec& w,
                    std::uint64_t set, const std::vector<Test>& tests,
                    const Pass& p) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "{\n  \"workload\": \"" << w.name << "\",\n  \"seed_set\": " << set
      << ",\n  \"audit\": {\"tp\": " << p.audit.tp << ", \"fp\": "
      << p.audit.fp << ", \"fn\": " << p.audit.fn << ", \"tn\": "
      << p.audit.tn << ", \"skipped\": " << p.audit.skipped
      << ", \"accuracy\": " << obs::json_number(p.audit.accuracy)
      << "},\n  \"runs\": {\n";
  for (std::size_t i = 0; i < p.runs.size(); ++i) {
    const auto& r = p.runs[i].report;
    out << "    \"" << tests[i].id << "\": {\"verdict\": \"" << r.verdict
        << "\", \"audit\": \"" << r.audit.classification << "\"}"
        << (i + 1 < p.runs.size() ? ",\n" : "\n");
  }
  out << "  }\n}\n";
  return out.good();
}

/// Failed runs per cause. A run fails when its budget ran out, its verdict
/// is inconclusive, or its verdict or audit class differs from the stored
/// expectation.
struct Failures {
  std::size_t budget = 0, inconclusive = 0, unexpected = 0;
  std::size_t total() const { return budget + inconclusive + unexpected; }
};

void check_pass(const Pass& p, const std::vector<Test>& tests,
                const Expected* e, Failures& f) {
  for (std::size_t i = 0; i < p.runs.size(); ++i) {
    const auto& r = p.runs[i];
    if (r.budget_exhausted) {
      ++f.budget;
    } else if (r.report.verdict ==
               core::to_string(core::Verdict::Inconclusive)) {
      ++f.inconclusive;
    } else if (e != nullptr) {
      const auto it = e->runs.find(tests[i].id);
      if (it == e->runs.end() || it->second.first != r.report.verdict ||
          it->second.second != r.report.audit.classification) {
        ++f.unexpected;
        std::fprintf(stderr, "perfbench: %s: verdict \"%s\" (%s), expected "
                     "\"%s\" (%s)\n", tests[i].id.c_str(),
                     r.report.verdict.c_str(),
                     r.report.audit.classification.c_str(),
                     it != e->runs.end() ? it->second.first.c_str() : "?",
                     it != e->runs.end() ? it->second.second.c_str() : "?");
      }
    }
  }
}

Counts pass_counts(const Pass& p) {
  Counts c;
  for (const auto& r : p.runs) c.add(r.metrics);
  return c;
}

// ------------------------------------------------------------- output

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, int pct) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/// The highest whole percentile with at least 10 samples beyond it (50
/// when there are fewer than 20 samples).
int tail_percentile(std::size_t n) {
  for (int pct = 99; pct > 50; --pct) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10) return pct;
  }
  return 50;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metric(const Metric& m, const std::string& note = "") {
  std::printf("  %-28s %14.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            obs::json_number(v) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_failures(const Failures& f, std::size_t attempted) {
  std::printf("  %-28s %14zu %-6s of %zu attempted (share %.4g: %zu budget "
              "exhausted, %zu inconclusive, %zu unexpected verdicts)\n",
              "failed_runs", f.total(), "runs", attempted,
              static_cast<double>(f.total()) /
                  static_cast<double>(std::max<std::size_t>(attempted, 1)),
              f.budget, f.inconclusive, f.unexpected);
}

// ------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 0;  ///< 0 = the workload's own
  std::string expected_dir = "perfbench/expected";
  bool record = false;
  std::string trace_out;
};

bool parse_options(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--record") {
      o.record = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      o.workload = argv[++i];
    } else if (a == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--threads") {
      o.threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (a == "--expected") {
      o.expected_dir = argv[++i];
    } else if (a == "--trace-out") {
      o.trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

/// Every WEHEY_* variable can change what a grid does (background
/// carrier, fault plan, grid scale, trial budgets, thread count), so none
/// is inherited: the workload is defined by the arguments alone.
void clear_ambient_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("WEHEY_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& name : names) {
    std::fprintf(stderr, "perfbench: ignoring ambient %s\n", name.c_str());
    unsetenv(name.c_str());
  }
}

// ---------------------------------------------------------- the modes

struct Context {
  const WorkloadSpec& w;
  std::uint64_t first_set;  ///< seed mod kSeedSets
  unsigned threads;
  const Options& opt;
  const std::vector<Expected>* expected;  ///< per seed set; null = record
};

const Expected* expected_for(const Context& c, std::uint64_t set) {
  return c.expected != nullptr ? &(*c.expected)[set] : nullptr;
}

int run_untraced(const Context& c) {
  std::vector<double> setup_s;
  Grid grid;
  for (int r = 0; r < kSetupRepeats; ++r) {
    SpanLog unused;
    const std::uint64_t t0 = now_ns();
    grid = build_grid(c.w, unused);
    setup_s.push_back(seconds_since(t0));
  }
  const int rounds =
      c.opt.record ? 1
                   : std::max(1, static_cast<int>(c.opt.seconds /
                                                  c.w.nominal_round_s));
  Failures failures;
  bool consistent = true;
  std::vector<double> pass_s;
  std::vector<double> run_ms;
  std::vector<Counts> counts(kSeedSets);
  Audit audit;  // of the seed's own set
  double events = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (std::uint64_t k = 0; k < kSeedSets; ++k) {
      const std::uint64_t set = (c.first_set + k) % kSeedSets;
      const Pass p = run_pass(c.w, grid, set, c.threads, /*traced=*/false);
      check_pass(p, grid.sets[set], expected_for(c, set), failures);
      const Counts pc = pass_counts(p);
      if (r == 0) {
        counts[set] = pc;
      } else if (!(pc == counts[set])) {
        consistent = false;
        std::fprintf(stderr, "perfbench: set %llu: counts differ between "
                     "rounds\n", static_cast<unsigned long long>(set));
      }
      if (r == 0 && k == 0) audit = p.audit;
      events += static_cast<double>(pc.events);
      pass_s.push_back(p.wall_s);
      for (const auto& run : p.runs) run_ms.push_back(run.wall_ms);
      if (c.opt.record) {
        const std::string path = expected_path(c.opt.expected_dir, c.w, set);
        if (!write_expected(path, c.w, set, grid.sets[set], p)) {
          consistent = false;
        }
        std::printf("recorded %s\n", path.c_str());
      }
    }
  }
  const std::size_t attempted = run_ms.size();
  std::sort(run_ms.begin(), run_ms.end());
  const int tail = tail_percentile(run_ms.size());
  double total_pass_s = 0.0;
  for (double s : pass_s) total_pass_s += s;
  const double setup = median(setup_s);

  const std::vector<Metric> metrics = {
      {"grid_s", setup + median(pass_s), "s"},
      {"runs_per_s", static_cast<double>(attempted) / total_pass_s, "1/s"},
      {"run_ms_p50", percentile(run_ms, 50), "ms"},
      {"run_ms_tail", percentile(run_ms, tail), "ms"},
      {"setup_s", setup, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"accuracy", audit.accuracy, "ratio"},
  };
  char note[160];
  print_metric(metrics[0], "median set-up + median pass, " +
                               std::to_string(pass_s.size()) + " passes");
  print_metric(metrics[1], std::to_string(grid.sets[0].size()) +
                               " WeHeY tests per pass");
  print_metric(metrics[2], std::to_string(attempted) + " samples");
  std::snprintf(note, sizeof(note), "p%d of %zu samples, %zu beyond it", tail,
                attempted,
                attempted - static_cast<std::size_t>(std::ceil(
                                tail / 100.0 * static_cast<double>(attempted))));
  print_metric(metrics[3], note);
  print_metric(metrics[4], "median of " + std::to_string(setup_s.size()) +
                               " set-ups (" +
                               std::to_string(grid.tdiff_phases) +
                               " T_diff phases each)");
  print_metric(metrics[5], "VmHWM at exit");
  std::snprintf(note, sizeof(note), "seed set %llu: tp %.0f fp %.0f fn %.0f "
                "tn %.0f", static_cast<unsigned long long>(c.first_set),
                audit.tp, audit.fp, audit.fn, audit.tn);
  print_metric(metrics[6], note);
  print_failures(failures, attempted);
  std::printf("  pass walls (s):");
  for (double s : pass_s) std::printf(" %.4g", s);
  std::printf("\n  set-up walls (s):");
  for (double s : setup_s) std::printf(" %.4g", s);
  std::printf("\n  %-28s %14.6g %-6s %.0f events in %.4g s of passes\n",
              "events_per_s (info)", events / total_pass_s, "1/s", events,
              total_pass_s);

  const bool correct = consistent && failures.total() == 0;
  print_result(correct, attempted, failures.total(), metrics);
  return correct ? 0 : 1;
}

/// Median over the runs that made the call of each run's summed time in
/// spans named `name`.
double per_run_median(const Pass& p, const std::string& name) {
  std::vector<double> per_run;
  for (const auto& r : p.runs) {
    double sum = 0.0;
    bool seen = false;
    for (const auto& s : r.spans.spans()) {
      if (s.name != name) continue;
      sum += s.ms();
      seen = true;
    }
    if (seen) per_run.push_back(sum);
  }
  return median(per_run);
}

/// One seed set only: set-up, an untraced pass, then the traced pass.
int run_traced(const Context& c) {
  SpanLog setup_log("setup");
  const std::uint64_t t0 = now_ns();
  const Grid grid = build_grid(c.w, setup_log);
  const std::uint64_t set = c.first_set;
  const double setup = seconds_since(t0);

  // Untraced reference pass, with the engine's runtime telemetry on (the
  // parallel.* metrics come from it).
  obs::runtime::set_enabled(true);
  obs::runtime::reset();
  const Pass plain = run_pass(c.w, grid, set, c.threads, /*traced=*/false);
  const obs::runtime::RuntimeSnapshot snap = obs::runtime::snapshot();
  obs::runtime::set_enabled(false);
  const Pass traced = run_pass(c.w, grid, set, c.threads, /*traced=*/true);

  Failures failures;
  check_pass(plain, grid.sets[set], expected_for(c, set), failures);
  check_pass(traced, grid.sets[set], expected_for(c, set), failures);
  const Counts counts = pass_counts(plain);
  bool consistent = counts == pass_counts(traced);
  if (!consistent) {
    std::fprintf(stderr, "perfbench: traced and untraced counts differ\n");
  }
  for (std::size_t i = 0; i < traced.runs.size(); ++i) {
    const Outcome& r = traced.runs[i];
    if (r.budget_exhausted) continue;
    Counts reported;
    reported.add(r.metrics);
    if (!(reported == r.outside) || r.outside_verdict != r.report.verdict) {
      consistent = false;
      std::fprintf(stderr, "perfbench: %s: phases re-run from outside do not "
                   "reproduce the run\n", grid.sets[set][i].id.c_str());
    }
  }

  // Per-span-name totals and self times over set-up and the traced pass.
  struct Row {
    std::size_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  std::vector<const SpanLog*> logs = {&setup_log, &traced.spans};
  for (const auto& r : traced.runs) logs.push_back(&r.spans);
  std::vector<double> phase_ms;
  double phases_total_ms = 0.0;
  for (const SpanLog* log : logs) {
    const auto self = perfbench::self_ms(log->spans());
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      Row& row = rows[s.name];
      ++row.calls;
      row.total_ms += s.ms();
      row.self_ms += self[i];
      if (s.name == "experiments.phase") {
        phase_ms.push_back(s.ms());
        phases_total_ms += s.ms();
      }
    }
  }
  std::size_t background_flows = 0;
  double report_bytes = 0.0;
  for (const auto& r : traced.runs) {
    background_flows += r.background_flows;
    report_bytes += static_cast<double>(r.report_bytes);
  }
  const auto total = [&](const char* name) {
    const auto it = rows.find(name);
    return it != rows.end() ? it->second.total_ms : 0.0;
  };
  const auto calls = [&](const char* name) {
    const auto it = rows.find(name);
    return it != rows.end() ? static_cast<double>(it->second.calls) : 0.0;
  };
  const double delivered = static_cast<double>(counts.delivered);
  const double plain_grid_s = setup + plain.wall_s;
  const double traced_grid_s = setup + traced.wall_s;

  const std::vector<Metric> metrics = {
      {"experiments.phase_ms", median(phase_ms), "ms"},
      {"experiments.phases", calls("experiments.phase"), "count"},
      {"experiments.tdiff_ms", total("experiments.tdiff"), "ms"},
      {"experiments.tdiff_phases", static_cast<double>(grid.tdiff_phases),
       "count"},
      {"trace.app_ms", per_run_median(traced, "trace.app"), "ms"},
      {"trace.background_ms", per_run_median(traced, "trace.background"),
       "ms"},
      {"trace.background_flows", static_cast<double>(background_flows),
       "count"},
      {"trace.fluid_profile_ms", per_run_median(traced, "trace.fluid_profile"),
       "ms"},
      {"netsim.events", static_cast<double>(counts.events), "count"},
      {"netsim.heap_depth_peak", counts.heap_peak, "count"},
      {"netsim.delivered_packets", delivered, "count"},
      {"netsim.drops", static_cast<double>(counts.drops), "count"},
      {"netsim.fluid_steps", static_cast<double>(counts.fluid_steps),
       "count"},
      {"netsim.delivery_ratio",
       delivered / std::max(1.0, delivered + static_cast<double>(counts.drops)),
       "ratio"},
      {"netsim.events_per_s",
       static_cast<double>(counts.events) / (phases_total_ms / 1e3), "1/s"},
      {"transport.tcp_flows", static_cast<double>(counts.tcp_flows), "count"},
      {"transport.retx_segments", static_cast<double>(counts.retx), "count"},
      {"transport.rto_timeouts", static_cast<double>(counts.rto), "count"},
      {"transport.retx_ratio",
       static_cast<double>(counts.retx) / std::max(1.0, delivered), "ratio"},
      {"core.localize_ms", per_run_median(traced, "core.localize"), "ms"},
      {"core.wehe_ms", per_run_median(traced, "core.wehe"), "ms"},
      {"core.throughput_cmp_ms", per_run_median(traced, "core.throughput_cmp"),
       "ms"},
      {"core.loss_corr_ms", per_run_median(traced, "core.loss_corr"), "ms"},
      {"obs.report_ms", per_run_median(traced, "obs.report"), "ms"},
      {"obs.report_bytes", report_bytes, "bytes"},
      {"obs.aggregate_ms", total("obs.aggregate"), "ms"},
      {"parallel.efficiency", snap.parallel_efficiency, "ratio"},
      {"parallel.worker_imbalance", snap.worker_imbalance, "ratio"},
      {"parallel.wait_fraction", snap.wait_fraction, "ratio"},
      {"bench.trace_overhead", traced_grid_s / plain_grid_s - 1.0, "ratio"},
  };

  // Self time per span, largest first. A phase's self time is what its
  // trace inputs do not account for: the event-driven simulation itself.
  // The run span's self time is the re-timing itself (the tracing cost),
  // so it is listed but left out of the shares.
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  double self_total = 0.0;
  for (const auto& [name, row] : sorted) {
    if (name != "run") self_total += row.self_ms;
  }
  std::printf("  per-layer self time (set-up + traced pass, %zu span logs)\n",
              logs.size());
  std::printf("  %-22s %-18s %7s %12s %12s %7s\n", "span", "layer", "calls",
              "total_ms", "self_ms", "share");
  for (const auto& [name, row] : sorted) {
    const std::string layer = name == "run" ? "bench (tracing)"
                              : name == "experiments.phase"
                                  ? "netsim+transport"
                                  : name.substr(0, name.find('.'));
    std::printf("  %-22s %-18s %7zu %12.1f %12.1f ", name.c_str(),
                layer.c_str(), row.calls, row.total_ms, row.self_ms);
    if (name == "run") {
      std::printf("%7s\n", "-");
    } else {
      std::printf("%6.1f%%\n", 100.0 * row.self_ms / std::max(self_total, 1e-9));
    }
  }
  for (const auto& m : metrics) print_metric(m);
  std::printf("  untraced grid_s %.4g s, traced grid_s %.4g s\n", plain_grid_s,
              traced_grid_s);
  const std::size_t attempted = plain.runs.size() + traced.runs.size();
  print_failures(failures, attempted);
  if (!c.opt.trace_out.empty()) {
    if (perfbench::write_trace_file(c.opt.trace_out, logs)) {
      std::printf("  spans: %s\n", c.opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   c.opt.trace_out.c_str());
    }
  }
  const bool correct = consistent && failures.total() == 0;
  print_result(correct, attempted, failures.total(), metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--threads T] [--expected DIR] "
                 "[--record] [--trace-out FILE]\n");
    return 2;
  }
  const WorkloadSpec* w = nullptr;
  for (const auto& spec : kWorkloads) {
    if (opt.workload == spec.name) w = &spec;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 opt.workload.c_str());
    return 2;
  }
  clear_ambient_environment();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads =
      std::min(opt.threads > 0 ? opt.threads : w->max_threads, hw);
  // Read once by the parallel engine, before its first use below.
  setenv("WEHEY_THREADS", std::to_string(threads).c_str(), 1);

  std::vector<Expected> expected(kSeedSets);
  for (std::uint64_t set = 0; set < kSeedSets && !opt.record; ++set) {
    if (!load_expected(expected_path(opt.expected_dir, *w, set),
                       expected[set])) {
      return 1;
    }
  }
  const std::uint64_t first_set = opt.seed % kSeedSets;
  std::printf("perfbench %s: seed %llu (seed set %llu first), %u thread(s), "
              "%s\n", w->name, static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(first_set), threads,
              opt.trace ? "traced" : "untraced");
  const Context c{*w, first_set, threads, opt,
                  opt.record ? nullptr : &expected};
  return opt.trace ? run_traced(c) : run_untraced(c);
}
