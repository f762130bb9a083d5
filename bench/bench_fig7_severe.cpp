// Figure 7 (and the §6.3 "FN under severe throttling" experiment): TCP
// false negatives as a function of the retransmission rate, obtained by
// sweeping the fraction of background traffic directed through the
// rate-limiter (25/50/75%).
//
// Paper shape: overall FN ~19%; false negatives concentrate where the
// retransmission rate exceeds ~20%.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "parallel/trials.hpp"

using namespace wehey;
using namespace wehey::experiments;

int main() {
  bench::print_header("Figure 7", "FN under severe throttling (TCP)");
  obs::ObservedSweep obs_run("bench_fig7_severe");
  const auto scale = run_scale();

  struct Point {
    double retx;
    double qdelay;
    bool detected;
  };
  std::vector<Point> points;
  bench::FnStats overall;
  int below20_fn = 0, below20_n = 0, above20_fn = 0, above20_n = 0;

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
  // The sweep runs on the parallel engine; the scatter/stat aggregation
  // below walks the outcomes in config order, so output is identical to
  // the serial loop.
  const auto outcomes = parallel::run_trials(configs, bench::run_detectors);
  for (const auto& out : outcomes) {
    overall.add(out);
    if (!out.wehe_detected) continue;
    points.push_back({out.retx_rate, out.queue_delay_ms, out.loss_trend});
    if (out.retx_rate > 0.20) {
      ++above20_n;
      above20_fn += !out.loss_trend;
    } else {
      ++below20_n;
      below20_fn += !out.loss_trend;
    }
  }

  std::printf("scatter (retx rate, queueing delay ms, verdict):\n");
  auto csv = bench::open_csv("fig7_severe");
  if (csv) csv->header({"retx_rate", "queueing_delay_ms", "verdict"});
  for (const auto& p : points) {
    std::printf("  %.3f  %7.1f  %s\n", p.retx, p.qdelay,
                p.detected ? "TP" : "FN");
    if (csv) {
      csv->row({CsvWriter::num(p.retx), CsvWriter::num(p.qdelay),
                p.detected ? "TP" : "FN"});
    }
  }
  std::printf("\noverall FN: %.1f%% over %d detected experiments "
              "(%d skipped)\n",
              overall.fn_rate(), overall.experiments, overall.skipped);
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
  return 0;
}
