// The §4.3 design journey, replayed: why classic binary loss tomography
// fails under traffic differentiation, and how the loss-trend view fixes
// it.
//
// Runs one collective-throttling scenario (rate-limiter on the common
// link) and applies, to the same measurements:
//   V0  BinLossTomo++ across a range of loss thresholds,
//   V1  BinLossTomoNoParams (threshold/interval sweep with averaged gaps),
//   V2  loss-trend tomography (lossy = "loss rate increased"),
//   and WeHeY's final loss-trend correlation algorithm.
//
//   ./tomography_pitfalls [seed]
#include <cstdio>
#include <cstdlib>

#include "core/loss_correlation.hpp"
#include "core/tomography.hpp"
#include "experiments/params.hpp"
#include "experiments/scenario.hpp"

using namespace wehey;
using namespace wehey::experiments;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 43;

  auto cfg = default_scenario("Netflix", seed);
  std::printf("scenario: collective throttling on the common link "
              "(app=%s, seed=%llu)\n\n",
              cfg.app.c_str(), static_cast<unsigned long long>(seed));
  const auto test = run_simultaneous_test_reported(cfg, "tomography_pitfalls");
  if (!test.localization.confirmation_passed) {
    std::printf("WeHe did not detect differentiation on this seed; try "
                "another.\n");
    return 0;
  }
  const auto& m1 = test.phases[0].p1.meas;
  const auto& m2 = test.phases[0].p2.meas;
  const Time rtt = milliseconds(cfg.rtt1_ms);
  std::printf("measured loss rates: p1 %.3f, p2 %.3f (ground truth: both "
              "paths share the rate-limiter)\n\n",
              m1.loss_rate(), m2.loss_rate());

  std::printf("V0: BinLossTomo++ at sigma = 0.6 s, across thresholds\n");
  const double max_loss = std::max(m1.loss_rate(), m2.loss_rate());
  for (int i = 1; i <= 8; ++i) {
    const double tau = 1.8 * max_loss * i / 8.0;
    const auto perf = core::bin_loss_tomo(m1, m2, milliseconds(600), tau);
    const bool verdict =
        perf.valid && perf.x_1 > perf.x_c && perf.x_2 > perf.x_c;
    std::printf("  tau=%.4f  x_c=%.3f x_1=%.3f x_2=%.3f -> %s\n", tau,
                perf.x_c, perf.x_1, perf.x_2,
                verdict ? "common bottleneck" : "no evidence");
  }
  std::printf("  (the verdict flips with the threshold — the "
              "parameter-sensitivity problem)\n\n");

  const auto v1 = core::bin_loss_tomo_no_params(m1, m2, rtt);
  std::printf("V1: BinLossTomoNoParams: gaps %.3f/%.3f over %zu "
              "combinations -> %s\n",
              v1.avg_gap_1, v1.avg_gap_2, v1.combinations,
              v1.common_bottleneck ? "common bottleneck" : "no evidence");

  const auto v2 = core::loss_trend_tomography(m1, m2, rtt);
  std::printf("V2: loss-trend tomography: gaps %.3f/%.3f -> %s\n",
              v2.avg_gap_1, v2.avg_gap_2,
              v2.common_bottleneck ? "common bottleneck" : "no evidence");

  const auto final = core::loss_trend_correlation(m1, m2, rtt);
  std::printf("WeHeY: loss-trend correlation: %zu/%zu interval sizes "
              "correlated -> %s\n",
              final.sizes_correlated, final.sizes_tested,
              final.common_bottleneck ? "COMMON BOTTLENECK" : "no evidence");
  return 0;
}
