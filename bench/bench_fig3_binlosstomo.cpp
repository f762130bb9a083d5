// Figure 3: the parameter-sensitivity pathology of binary loss
// tomography. A rate-limiter on the common link introduces ~4% average
// loss; we show (a) the two paths' end-to-end loss rates over time
// (sigma = 0.6 s) and (b) the inferred link performances x_c and x_1 as a
// function of the loss threshold tau.
//
// Paper shape: x_1 should ideally be a flat 100% and x_c monotone
// increasing; instead the curves approach and cross near tau = the true
// average loss rate.
#include <cstdio>

#include "bench_util.hpp"
#include "core/loss_series.hpp"
#include "core/tomography.hpp"

using namespace wehey;
using namespace wehey::experiments;

int main() {
  bench::print_header("Figure 3", "BinLossTomo threshold sensitivity");
  obs::ObservedSweep obs_run("bench_fig3_binlosstomo");

  auto cfg = default_scenario("Netflix", 77);
  cfg.replay_duration = seconds(30);
  cfg.input_rate_factor = 1.3;  // mild throttling: a few % average loss
  const auto test = run_simultaneous_test_reported(cfg, "fig3");
  const auto& m1 = test.phases[0].p1.meas;
  const auto& m2 = test.phases[0].p2.meas;

  std::printf("(a) per-path loss rate over time (sigma = 0.6 s)\n");
  core::SeriesOptions opt;
  opt.require_some_loss = false;
  const auto series =
      core::make_loss_rate_series(m1, m2, milliseconds(600), opt);
  std::printf("  t(s)   p1      p2\n");
  for (std::size_t t = 0; t < series.path1.size(); ++t) {
    std::printf("  %4.1f  %.4f  %.4f\n", 0.6 * static_cast<double>(t),
                series.path1[t], series.path2[t]);
  }
  std::printf("  average loss: p1 %.4f, p2 %.4f\n\n", m1.loss_rate(),
              m2.loss_rate());

  std::printf("(b) inferred link performance vs loss threshold tau "
              "(sigma = 0.6 s)\n");
  std::printf("  %-7s | %-6s | %-6s | %-6s\n", "tau", "x_c", "x_1", "x_2");
  const double max_tau = 2.0 * std::max(m1.loss_rate(), m2.loss_rate());
  for (int i = 1; i <= 14; ++i) {
    const double tau = max_tau * i / 14.0;
    const auto perf = core::bin_loss_tomo(m1, m2, milliseconds(600), tau);
    if (!perf.valid) {
      std::printf("  %.5f |   (unsolvable)\n", tau);
      continue;
    }
    std::printf("  %.5f | %.4f | %.4f | %.4f%s\n", tau, perf.x_c, perf.x_1,
                perf.x_2,
                perf.x_1 <= perf.x_c ? "   <- x_1 dragged to/below x_c" : "");
  }
  std::printf("\npaper: the dark (x_c) and light (x_1) curves converge and "
              "cross as tau approaches the true loss rate (~0.04 there)\n");
  obs_run.report().verdict = "completed";
  return obs_run.finish() ? 0 : 1;
}
