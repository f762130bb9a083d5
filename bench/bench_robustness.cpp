// Robustness bench: verdict stability of the WeHeY session pipeline under
// every shipped fault plan.
//
// For each plan the same scenario is run under `runs` different fault
// seeds (the *network* seed is fixed, so a clean run always yields the
// same outcome — the spread below is purely fault-induced). Reported per
// plan, as RunReport values "<plan>.<name>":
//   * runs, and outcome.<outcome> — the outcome histogram across seeds,
//   * stability   — fraction of seeds agreeing with the modal outcome (the
//                   first largest outcome count),
//   * match_clean — fraction of seeds reproducing the fault-free outcome,
//   * mean_replay_retries / mean_control_retries / mean_pair_fallbacks,
//   * injected.<kind> and injected.total — the summed injector tallies.
// Plus runs_per_plan and clean_outcome.<outcome> = 1. Outcome names live
// in the keys, so an exact compare against
// bench/baselines/bench_robustness.report.json also pins them.
// Quick mode runs 5 seeds per plan; WEHEY_FULL=1 runs 20
// (WEHEY_RUNS_PER_CONFIG overrides either).
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

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

  auto& values = obs_run.report().values;
  values["runs_per_plan"] = runs;
  values["clean_outcome." + clean_outcome] = 1;
  for (const auto& name : faults::shipped_plan_names()) {
    std::map<std::string, int> outcomes;  ///< outcome name -> count
    int matched = 0;
    double mean_replay_retries = 0.0;
    double mean_control_retries = 0.0;
    double mean_pair_fallbacks = 0.0;
    faults::InjectionStats injection;  ///< summed over the plan's seeds
    for (int i = 0; i < runs; ++i) {
      const auto plan =
          faults::shipped_plan(name, static_cast<std::uint64_t>(i) + 1);
      const auto result = run_once(plan);
      const std::string outcome = replay::to_string(result.outcome);
      ++outcomes[outcome];
      if (outcome == clean_outcome) ++matched;
      mean_replay_retries += result.replay_retries;
      mean_control_retries += result.control_retries;
      mean_pair_fallbacks += result.pair_fallbacks;
      injection += result.injection;
      for (const auto& [kind, count] : result.injection.by_kind()) {
        obs_run.report().injection[kind] += count;
      }
    }
    std::string modal;
    int modal_count = 0;
    for (const auto& [outcome, count] : outcomes) {
      values[name + ".outcome." + outcome] = count;
      if (count > modal_count) {
        modal_count = count;
        modal = outcome;
      }
    }
    const double stability = static_cast<double>(modal_count) / runs;
    const double match_clean = static_cast<double>(matched) / runs;
    mean_replay_retries /= runs;
    mean_control_retries /= runs;
    mean_pair_fallbacks /= runs;
    values[name + ".runs"] = runs;
    values[name + ".stability"] = stability;
    values[name + ".match_clean"] = match_clean;
    values[name + ".mean_replay_retries"] = mean_replay_retries;
    values[name + ".mean_control_retries"] = mean_control_retries;
    values[name + ".mean_pair_fallbacks"] = mean_pair_fallbacks;
    values[name + ".injected.total"] = injection.total();
    for (const auto& [kind, count] : injection.by_kind()) {
      values[name + ".injected." + kind] = count;
    }
    std::printf("%-18s %-26s %8.0f%% %10.0f%% %8.2f %8.2f %8.2f\n",
                name.c_str(), modal.c_str(), 100.0 * stability,
                100.0 * match_clean, mean_replay_retries, mean_control_retries,
                mean_pair_fallbacks);
    // Per-fault-kind tallies, so a plan's headline numbers can be traced
    // back to what the injector actually did.
    std::printf("  %-16s injected:", "");
    if (injection.total() == 0) {
      std::printf(" none");
    } else {
      for (const auto& [kind, count] : injection.by_kind()) {
        if (count > 0) std::printf(" %s=%d", kind, count);
      }
    }
    std::printf("\n");
  }
  obs_run.report().verdict = "completed";
  return obs_run.finish() ? 0 : 1;
}
