// Table 5: false-positive rate of the loss-trend correlation algorithm
// under *identically configured* independent rate-limiters on the two
// non-common link sequences — the paper's "ultimate FP test".
//
// Paper shape: FP close to or better than the 5% target for the TCP trace
// and all five UDP apps (1.13-3.75%).
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace wehey;
using namespace wehey::experiments;

int main() {
  bench::print_header("Table 5",
                      "FP under identical rate-limiters on l1 and l2");
  obs::ObservedSweep obs_run("bench_table5_fp");
  const auto scale = run_scale();

  // WEHEY_FAULT_PLAN injects a shipped chaos plan into every trial of the
  // grid; the plan name and injection tallies land in the RunReport.
  const auto plan = faults::requested_plan();
  if (plan.has_value()) {
    obs_run.report().fault_plan = plan->name;
    std::printf("fault plan: %s (seed %llu)\n", plan->name.c_str(),
                static_cast<unsigned long long>(plan->seed));
  }

  // One grid over all apps; each app is one sweep cell.
  const auto apps = evaluation_apps();
  std::vector<ScenarioConfig> configs;
  std::vector<std::string> cells;
  for (const auto& app : apps) {
    std::uint64_t seed = 1;
    for (double factor : scale.input_rate_factors) {
      for (double queue : scale.queue_burst_factors) {
        for (std::size_t run = 0; run < scale.runs_per_config; ++run) {
          auto cfg = default_scenario(app, seed++);
          cfg.placement = Placement::NonCommonLinks;
          cfg.input_rate_factor = factor;
          cfg.queue_burst_factor = queue;
          if (plan.has_value()) cfg.fault_plan = &*plan;
          configs.push_back(cfg);
          cells.push_back(app);
        }
      }
    }
  }
  bench::run_grid(obs_run, cells, [&](std::size_t i, const std::string& id) {
    return run_simultaneous_test_reported(configs[i], id);
  });

  std::printf("%-9s | %-6s | %-8s | %s\n", "app", "runs", "FP rate",
              "(experiments with WeHe-confirmed differentiation)");
  std::printf("----------+--------+----------+----\n");
  for (const auto& app : apps) {
    const auto a = obs_run.cell_audit(app);
    std::printf("%-9s | %6" PRIu64 " | %s |\n", app.c_str(), a.fp + a.tn,
                bench::percent(a.fp, a.fp + a.tn, 8, 2).c_str());
  }
  obs_run.report().verdict = "completed";
  std::printf("\npaper: TCP 1.13%%, Skype 2.5%%, WhatsApp 1.67%%, "
              "MSTeams 3.75%%, Zoom 3.27%%, Webex 2.5%% (target 5%%)\n");
  return obs_run.finish() ? 0 : 1;
}
