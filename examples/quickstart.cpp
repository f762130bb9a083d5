// Quickstart: the full WeHeY pipeline on one emulated scenario.
//
// Builds the Figure-1 topology with a collective rate-limiter on the
// common link (the client ISP throttling a service's traffic plus part of
// the background), replays a TCP trace pair simultaneously along both
// paths, confirms differentiation per path with WeHe's detector, and runs
// the two common-bottleneck detectors.
//
//   ./quickstart [seed]
#include <cstdio>
#include <cstdlib>

#include "core/localizer.hpp"
#include "experiments/history.hpp"
#include "experiments/params.hpp"
#include "experiments/scenario.hpp"

using namespace wehey;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  experiments::ScenarioConfig cfg =
      experiments::default_scenario("Netflix", seed);
  const auto derived = experiments::derive(cfg);
  std::printf("Scenario: app=%s duration=%.0fs trace=%.2f Mbps "
              "limiter=%.2f Mbps (burst %lld B, queue %lld B)\n",
              cfg.app.c_str(), to_seconds(cfg.replay_duration),
              derived.trace_rate / 1e6, derived.limiter_rate / 1e6,
              static_cast<long long>(derived.net.limiter.burst),
              static_cast<long long>(derived.net.limiter.limit));

  // The full WeHeY test: the simultaneous replays (original, then
  // bit-inverted), the p0 single replays, and the localization, with the
  // historical T_diff data the throughput comparison needs.
  experiments::HistoryConfig hist;
  hist.replays = 8;  // keep the example quick
  const auto t_diff = experiments::build_t_diff_history(cfg, hist);
  const auto test =
      experiments::run_full_experiment_reported(cfg, t_diff, "quickstart");
  const auto& loc = test.localization;

  // 1. Simultaneous replays, and WeHe's confirmation on each path.
  std::printf("\n-- simultaneous replays --\n");
  const auto& original = test.phases[0];  // Phase::SimOriginal
  const auto& inverted = test.phases[1];  // Phase::SimInverted
  const auto& p1 = original.p1;
  const auto& p2 = original.p2;
  std::printf("p1: throughput %.2f Mbps, retx rate %.3f, queue delay %.1f ms\n",
              p1.avg_throughput_bps / 1e6, p1.retx_rate,
              p1.avg_queuing_delay_ms);
  std::printf("p2: throughput %.2f Mbps, retx rate %.3f, queue delay %.1f ms\n",
              p2.avg_throughput_bps / 1e6, p2.retx_rate,
              p2.avg_queuing_delay_ms);
  std::printf("p1 inverted: throughput %.2f Mbps (loss %.3f)\n",
              inverted.p1.avg_throughput_bps / 1e6, inverted.p1.retx_rate);
  std::printf("differentiation confirmed on both paths: %s "
              "(p1 KS p=%.3g, p2 KS p=%.3g)\n",
              loc.confirmation_passed ? "yes" : "no",
              loc.p1_confirmation.p_value, loc.p2_confirmation.p_value);

  // 2. Loss-trend correlation (Algorithm 1), per interval size.
  std::printf("\n-- loss-trend correlation --\n");
  const auto corr = core::loss_trend_correlation(p1.meas, p2.meas,
                                                 milliseconds(cfg.rtt1_ms));
  for (const auto& o : corr.per_size) {
    std::printf("  sigma=%6.2fs intervals=%3zu rho=%+.3f p=%.4f %s\n",
                to_seconds(o.sigma), o.retained_intervals, o.rho, o.p_value,
                o.correlated ? "correlated" : "-");
  }
  std::printf("common bottleneck (collective throttling): %s (%zu/%zu)\n",
              corr.common_bottleneck ? "DETECTED" : "not detected",
              corr.sizes_correlated, corr.sizes_tested);

  // 3. The full pipeline's verdict, including the throughput comparison
  //    (the p0 single replays against the historical T_diff data).
  std::printf("\n-- full localization --\n");
  std::printf("verdict: %s\n",
              loc.verdict == core::Verdict::EvidenceWithinTargetArea
                  ? "evidence of differentiation WITHIN the client ISP"
                  : "no evidence beyond WeHe's detection");
  const char* mech = loc.mechanism == core::Mechanism::PerClientThrottling
                         ? "per-client throttling"
                     : loc.mechanism == core::Mechanism::CollectiveThrottling
                         ? "collective throttling"
                         : "none";
  std::printf("mechanism: %s (throughput-comparison p=%.3g; loss-trend %zu/%zu)\n",
              mech, loc.throughput.p_value, loc.loss.sizes_correlated,
              loc.loss.sizes_tested);
  return 0;
}
