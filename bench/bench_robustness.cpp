// Robustness bench: verdict stability of the WeHeY session pipeline under
// every shipped fault plan.
//
// For each plan the same scenario is run under `runs` different fault
// seeds (the *network* seed is fixed, so a clean run always yields the
// same outcome — the spread below is purely fault-induced). Reported per
// plan:
//   * the outcome histogram across seeds,
//   * stability   — fraction of seeds agreeing with the modal outcome,
//   * match_clean — fraction of seeds reproducing the fault-free outcome,
//   * mean retry / fallback counters.
//
// Results land in BENCH_robustness.json (override: WEHEY_BENCH_JSON).
// Quick mode runs 5 seeds per plan; WEHEY_FULL=1 runs 20
// (WEHEY_RUNS_PER_CONFIG overrides either).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "experiments/params.hpp"
#include "faults/plan.hpp"
#include "replay/session.hpp"

namespace wehey {
namespace {

replay::SessionConfig bench_config() {
  replay::SessionConfig cfg;
  cfg.scenario = experiments::default_scenario("Netflix", 2);
  cfg.scenario.replay_duration = seconds(30);
  cfg.t_diff_history = {0.06, -0.09, 0.12, -0.04, 0.08, -0.11,
                        0.05, -0.07, 0.10, -0.03, 0.09, -0.06};
  return cfg;
}

replay::SessionResult run_once(const faults::FaultPlan& plan) {
  auto cfg = bench_config();
  cfg.fault_plan = plan;
  topology::TopologyDatabase db;
  replay::seed_topology_database(cfg.scenario, db);
  return replay::run_session(cfg, db);
}

struct PlanSummary {
  std::string name;
  int runs = 0;
  std::map<std::string, int> outcomes;  ///< outcome name -> count
  std::string modal;
  double stability = 0.0;
  double match_clean = 0.0;
  double mean_replay_retries = 0.0;
  double mean_control_retries = 0.0;
  double mean_pair_fallbacks = 0.0;
  faults::InjectionStats injection;  ///< summed over the plan's seeds
};

}  // namespace
}  // namespace wehey

int main() {
  using namespace wehey;
  obs::ObservedSweep obs_run("bench_robustness");

  int runs = experiments::run_scale().full ? 20 : 5;
  if (const char* env = std::getenv("WEHEY_RUNS_PER_CONFIG")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) runs = parsed;
  }

  std::printf("robustness bench: %d fault seeds per plan\n\n", runs);

  const auto clean = run_once(faults::FaultPlan{});
  const std::string clean_outcome = replay::to_string(clean.outcome);
  std::printf("fault-free outcome: %s\n\n", clean_outcome.c_str());

  std::printf("%-18s %-26s %9s %11s %8s %8s %8s\n", "plan", "modal outcome",
              "stability", "match-clean", "retries", "ctrl-rtx", "pair-fb");

  std::vector<PlanSummary> summaries;
  for (const auto& name : faults::shipped_plan_names()) {
    PlanSummary sum;
    sum.name = name;
    sum.runs = runs;
    int matched = 0;
    for (int i = 0; i < runs; ++i) {
      const auto plan =
          faults::shipped_plan(name, static_cast<std::uint64_t>(i) + 1);
      const auto result = run_once(plan);
      const std::string outcome = replay::to_string(result.outcome);
      ++sum.outcomes[outcome];
      if (outcome == clean_outcome) ++matched;
      sum.mean_replay_retries += result.replay_retries;
      sum.mean_control_retries += result.control_retries;
      sum.mean_pair_fallbacks += result.pair_fallbacks;
      sum.injection += result.injection;
      for (const auto& [kind, count] : result.injection.by_kind()) {
        obs_run.report().injection[kind] += count;
      }
    }
    int modal_count = 0;
    for (const auto& [outcome, count] : sum.outcomes) {
      if (count > modal_count) {
        modal_count = count;
        sum.modal = outcome;
      }
    }
    sum.stability = static_cast<double>(modal_count) / runs;
    sum.match_clean = static_cast<double>(matched) / runs;
    sum.mean_replay_retries /= runs;
    sum.mean_control_retries /= runs;
    sum.mean_pair_fallbacks /= runs;
    summaries.push_back(sum);
    std::printf("%-18s %-26s %8.0f%% %10.0f%% %8.2f %8.2f %8.2f\n",
                sum.name.c_str(), sum.modal.c_str(), 100.0 * sum.stability,
                100.0 * sum.match_clean, sum.mean_replay_retries,
                sum.mean_control_retries, sum.mean_pair_fallbacks);
    // Per-fault-kind tallies, so a plan's headline numbers can be traced
    // back to what the injector actually did.
    std::printf("  %-16s injected:", "");
    if (sum.injection.total() == 0) {
      std::printf(" none");
    } else {
      for (const auto& [kind, count] : sum.injection.by_kind()) {
        if (count > 0) std::printf(" %s=%d", kind, count);
      }
    }
    std::printf("\n");
    obs_run.report().values[sum.name + ".stability"] = sum.stability;
    obs_run.report().values[sum.name + ".match_clean"] = sum.match_clean;
  }
  obs_run.report().verdict = "completed";

  const char* path_env = std::getenv("WEHEY_BENCH_JSON");
  const std::string path =
      path_env != nullptr && path_env[0] != 0 ? path_env
                                              : "BENCH_robustness.json";
  std::ofstream json(path);
  if (json) {
    json << "{\n";
    json << "  \"runs_per_plan\": " << runs << ",\n";
    json << "  \"clean_outcome\": \"" << clean_outcome << "\",\n";
    json << "  \"plans\": [\n";
    for (std::size_t i = 0; i < summaries.size(); ++i) {
      const auto& s = summaries[i];
      json << "    {\"name\": \"" << s.name << "\", \"runs\": " << s.runs
           << ", \"modal_outcome\": \"" << s.modal << "\""
           << ", \"stability\": " << s.stability
           << ", \"match_clean\": " << s.match_clean
           << ", \"mean_replay_retries\": " << s.mean_replay_retries
           << ", \"mean_control_retries\": " << s.mean_control_retries
           << ", \"mean_pair_fallbacks\": " << s.mean_pair_fallbacks
           << ", \"outcomes\": {";
      bool first = true;
      for (const auto& [outcome, count] : s.outcomes) {
        if (!first) json << ", ";
        first = false;
        json << "\"" << outcome << "\": " << count;
      }
      json << "}, \"injection\": {\"total\": " << s.injection.total();
      for (const auto& [kind, count] : s.injection.by_kind()) {
        json << ", \"" << kind << "\": " << count;
      }
      json << "}}" << (i + 1 < summaries.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::printf("\ncould not write %s\n", path.c_str());
  }
  return 0;
}
