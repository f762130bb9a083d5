// Table 1: successful localization rate of traffic differentiation in
// five (modelled) cellular ISPs, plus the §5 sanity-check tests.
//
// Paper shape: four ISPs >= ~89%; ISP5 (delayed fixed-rate throttling)
// far lower (16.28%); at most ~1 wrong sanity-check outcome.
#include <cstdio>

#include "bench_util.hpp"
#include "stats/resample.hpp"
#include "experiments/wild.hpp"
#include "trace/apps.hpp"

using namespace wehey;
using namespace wehey::experiments;

int main() {
  bench::print_header("Table 1", "localization success rate per ISP (wild)");
  obs::ObservedSweep obs_run("bench_table1_wild");
  const auto scale = run_scale();
  const std::size_t tests_per_isp = scale.full ? 50 : 12;
  const std::size_t sanity_per_isp = scale.full ? 10 : 3;
  obs_run.expect_runs(default_isp_models().size() *
                      (tests_per_isp + sanity_per_isp));

  // WEHEY_FAULT_PLAN runs the whole grid under a shipped chaos plan; the
  // per-kind injection tallies land in the RunReport.
  const auto plan = faults::requested_plan();
  if (plan.has_value()) {
    obs_run.report().fault_plan = plan->name;
    std::printf("fault plan: %s (seed %llu)\n", plan->name.c_str(),
                static_cast<unsigned long long>(plan->seed));
  }

  std::printf("%-6s | %-9s | %-11s | %s\n", "ISP", "basic", "success",
              "sanity-check wrong detections");
  std::printf("-------+-----------+-------------+------------------------------\n");
  for (const auto& isp : default_isp_models()) {
    WildConfig base;
    base.isp = isp;
    base.seed = 1;
    if (plan.has_value()) base.fault_plan = &*plan;
    const std::vector<std::string> cells(tests_per_isp + sanity_per_isp,
                                         isp.name);
    // T_diff feeds only the tests that actually execute (WEHEY_CHECKPOINT
    // resumes the rest).
    const auto t_diff = bench::grid_has_live_runs(obs_run, cells)
                            ? build_wild_t_diff(base, scale.full ? 14 : 10)
                            : std::vector<double>{};

    // Basic and sanity-check tests are independent full WeHeY runs, one
    // batch per ISP: the first tests_per_isp runs are basic tests, the
    // rest sanity checks.
    const auto& services = trace::tcp_app_names();
    const auto reports = bench::run_grid(
        obs_run, cells, [&](std::size_t i, const std::string& run_id) {
          WildConfig cfg = base;
          if (i < tests_per_isp) {
            cfg.seed = 1000 + i * 17;
            cfg.app = services[i % services.size()];  // §5: five services
            return run_wild_test_reported(cfg, t_diff,
                                          /*sanity_check=*/false, run_id);
          }
          cfg.seed = 5000 + (i - tests_per_isp) * 13;
          return run_wild_test_reported(cfg, t_diff, /*sanity_check=*/true,
                                        run_id);
        });
    std::size_t localized = 0;
    std::size_t wrong_sanity = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto& values = reports[i].values;
      // Wrong sanity-check behaviour: detecting a (per-client) common
      // bottleneck while a third flow shares it.
      const bool per_client = values.at("per_client") != 0.0;
      if (i < tests_per_isp) {
        localized += per_client && values.at("localized") != 0.0;
      } else {
        wrong_sanity += per_client;
      }
    }
    obs_run.report().values[isp.name + ".localized"] =
        static_cast<double>(localized);
    obs_run.report().values[isp.name + ".tests"] =
        static_cast<double>(tests_per_isp);
    const auto ci = stats::wilson_interval(localized, tests_per_isp);
    std::printf("%-6s | %3zu tests | %10.2f%% | %zu/%zu   (95%% CI "
                "%.0f-%.0f%%)\n",
                isp.name.c_str(), tests_per_isp,
                100.0 * static_cast<double>(localized) /
                    static_cast<double>(tests_per_isp),
                wrong_sanity, sanity_per_isp, 100.0 * ci.low,
                100.0 * ci.high);
  }
  std::printf("\npaper: ISP1 89.8%%, ISP2 89.83%%, ISP3 94%%, ISP4 98.18%%, "
              "ISP5 16.28%%; sanity checks wrong once overall\n");

  obs_run.report().verdict = "completed";
  return obs_run.finish() ? 0 : 1;
}
