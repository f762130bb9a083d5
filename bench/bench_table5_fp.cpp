// Table 5: false-positive rate of the loss-trend correlation algorithm
// under *identically configured* independent rate-limiters on the two
// non-common link sequences — the paper's "ultimate FP test".
//
// Paper shape: FP close to or better than the 5% target for the TCP trace
// and all five UDP apps (1.13-3.75%).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "parallel/trials.hpp"

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

  // Build the whole grid (all apps) up front, fan the independent trials
  // over the parallel engine, then fold per-app stats in config order.
  const auto apps = evaluation_apps();
  std::vector<ScenarioConfig> configs;
  std::vector<std::size_t> app_of;  // configs[i] belongs to apps[app_of[i]]
  for (std::size_t a = 0; a < apps.size(); ++a) {
    std::uint64_t seed = 1;
    for (double factor : scale.input_rate_factors) {
      for (double queue : scale.queue_burst_factors) {
        for (std::size_t run = 0; run < scale.runs_per_config; ++run) {
          auto cfg = default_scenario(apps[a], seed++);
          cfg.placement = Placement::NonCommonLinks;
          cfg.input_rate_factor = factor;
          cfg.queue_burst_factor = queue;
          if (plan.has_value()) cfg.fault_plan = &*plan;
          configs.push_back(cfg);
          app_of.push_back(a);
        }
      }
    }
  }
  // Checkpoint resume (WEHEY_CHECKPOINT): trials a killed sweep already
  // completed do not execute.
  std::vector<std::string> run_ids(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    char run_id[64];
    std::snprintf(run_id, sizeof(run_id), "bench_table5_fp.%s.r%03zu",
                  apps[app_of[i]].c_str(), i);
    run_ids[i] = run_id;
  }
  // Each trial comes back as a reported run (cell = app) so the sweep
  // aggregate carries per-app grid summaries and cross-cell percentiles.
  struct TrialResult {
    bench::DetectorOutcome outcome;
    obs::RunReport report;
    obs::MetricsRegistry metrics;
  };
  const auto results =
      parallel::parallel_map(configs.size(), [&](std::size_t i) {
        TrialResult res;
        if (obs_run.completed(run_ids[i])) return res;
        obs::Recorder* outer = obs::Recorder::current();
        obs::Recorder local(/*metrics_on=*/true,
                            outer != nullptr && outer->trace_on());
        {
          obs::ScopedRecorder bind(&local);
          res.outcome = bench::run_detectors(configs[i]);
        }
        const std::string& run_id = run_ids[i];
        auto& r = res.report;
        r.run = run_id;
        r.cell = apps[app_of[i]];
        r.seed = configs[i].seed;
        if (plan.has_value()) r.fault_plan = plan->name;
        r.verdict = res.outcome.loss_trend ? "common bottleneck detected"
                                           : "no common bottleneck";
        std::vector<obs::ProfileSpan> spans;
        const char* phase_names[] = {"sim_original", "sim_inverted"};
        const Time durations[] = {res.outcome.original_duration,
                                  res.outcome.inverted_duration};
        for (std::int64_t p = 0; p < 2; ++p) {
          r.add_stage(phase_names[p], 0, durations[p]);
          spans.push_back({p, phase_names[p], 0, durations[p]});
          spans.push_back({p, "replay_window", 0,
                           std::min(configs[i].replay_duration,
                                    durations[p])});
        }
        r.profile = obs::profile_from_spans(std::move(spans));
        r.values["wehe_detected"] = res.outcome.wehe_detected ? 1.0 : 0.0;
        r.values["loss_trend"] = res.outcome.loss_trend ? 1.0 : 0.0;
        r.values["tomo_no_params"] =
            res.outcome.tomo_no_params ? 1.0 : 0.0;
        r.values["retx_rate"] = res.outcome.retx_rate;
        r.values["queue_delay_ms"] = res.outcome.queue_delay_ms;
        r.values["tput1_mbps"] = res.outcome.tput1_mbps;
        for (const auto& [kind, count] : res.outcome.injection.by_kind()) {
          r.injection[kind] = count;
        }
        res.metrics = local.metrics();
        if (outer != nullptr) outer->absorb(std::move(local), run_id);
        return res;
      });

  std::vector<bench::FpStats> stats(apps.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    // FP tallies come from the run's report values, live or journaled.
    auto values =
        obs_run.absorb(run_ids[i], results[i].report, &results[i].metrics);
    stats[app_of[i]].add(values["loss_trend"] != 0.0);
  }

  std::printf("%-9s | %-6s | %-8s | %s\n", "app", "runs", "FP rate",
              "(experiments with WeHe-confirmed differentiation)");
  std::printf("----------+--------+----------+----\n");
  for (std::size_t a = 0; a < apps.size(); ++a) {
    std::printf("%-9s | %6d | %7.2f%% |\n", apps[a].c_str(),
                stats[a].experiments, stats[a].fp_rate());
    obs_run.report().values[apps[a] + ".fp_rate"] = stats[a].fp_rate();
    obs_run.report().values[apps[a] + ".experiments"] = stats[a].experiments;
  }
  obs_run.report().verdict = "completed";
  std::printf("\npaper: TCP 1.13%%, Skype 2.5%%, WhatsApp 1.67%%, "
              "MSTeams 3.75%%, Zoom 3.27%%, Webex 2.5%% (target 5%%)\n");
  return 0;
}
