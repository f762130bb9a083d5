// Figure 7 (and the §6.3 "FN under severe throttling" experiment): TCP
// false negatives as a function of the retransmission rate, obtained by
// sweeping the fraction of background traffic directed through the
// rate-limiter (25/50/75%).
//
// Paper shape: overall FN ~19%; false negatives concentrate where the
// retransmission rate exceeds ~20%.
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace wehey;
using namespace wehey::experiments;

int main() {
  bench::print_header("Figure 7", "FN under severe throttling (TCP)");
  obs::ObservedSweep obs_run("bench_fig7_severe");
  const auto scale = run_scale();

  std::vector<ScenarioConfig> configs;
  std::uint64_t seed = 7;
  for (double bg_fraction : {0.25, 0.5, 0.75}) {
    for (double factor : scale.input_rate_factors) {
      for (std::size_t run = 0; run < scale.runs_per_config; ++run) {
        auto cfg = default_scenario("Netflix", seed++);
        cfg.bg_diff_fraction = bg_fraction;
        cfg.input_rate_factor = factor;
        configs.push_back(cfg);
      }
    }
  }
  // One sweep cell: the figure is one scatter and one overall rate.
  const auto reports = bench::run_grid(
      obs_run, std::vector<std::string>(configs.size(), "Netflix"),
      [&](std::size_t i, const std::string& id) {
        return run_simultaneous_test_reported(configs[i], id);
      });

  std::printf("scatter (retx rate, queueing delay ms, verdict):\n");
  int below20_fn = 0, below20_n = 0, above20_fn = 0, above20_n = 0;
  for (const auto& r : reports) {
    if (r.audit.classification == "skipped") continue;
    const double retx = r.values.at("retx_rate");
    const double qdelay = r.values.at("queue_delay_ms");
    const bool detected = r.audit.classification == "tp";
    std::printf("  %.3f  %7.1f  %s\n", retx, qdelay, detected ? "TP" : "FN");
    if (retx > 0.20) {
      ++above20_n;
      above20_fn += !detected;
    } else {
      ++below20_n;
      below20_fn += !detected;
    }
  }
  const auto a = obs_run.cell_audit("Netflix");
  std::printf("\noverall FN: %s over %" PRIu64
              " detected experiments (%" PRIu64 " skipped)\n",
              bench::percent(a.fn, a.tp + a.fn, 0, 1).c_str(), a.tp + a.fn,
              a.skipped);
  if (below20_n > 0) {
    std::printf("FN with retx <= 20%%: %.1f%% (%d exps)\n",
                100.0 * below20_fn / below20_n, below20_n);
  }
  if (above20_n > 0) {
    std::printf("FN with retx  > 20%%: %.1f%% (%d exps)\n",
                100.0 * above20_fn / above20_n, above20_n);
  }
  std::printf("\npaper: overall FN 19.2%%; false negatives are almost all "
              "experiments with retransmission rate above 20%%\n");
  obs_run.report().verdict = "completed";
  return obs_run.finish() ? 0 : 1;
}
