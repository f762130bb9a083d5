// §3.2: WeHeY "can only localize traffic differentiation that ... causes
// packet loss. [It] cannot localize ... deep shapers that avoid packet
// loss."
//
// The token bucket's queue depth turns it from a policer into a shaper:
// sweeping the queue from shallow (drops) to deep (delays) shows WeHe's
// detection surviving throughout while loss-trend localization falls off
// exactly when the losses disappear — the limitation, reproduced.
#include <cstdio>

#include "bench_util.hpp"
#include "core/loss_correlation.hpp"

using namespace wehey;
using namespace wehey::experiments;

int main() {
  bench::print_header("§3.2", "policer vs shaper: the packet-loss assumption");
  obs::ObservedSweep obs_run("bench_shaper_limitation");
  const auto scale = run_scale();
  const std::size_t runs = scale.full ? 8 : 3;

  std::printf("  %-22s | %-6s | %-10s | %-9s | %s\n",
              "queue (x burst)", "WeHe", "loss-trend", "retx", "queue delay");
  std::printf("  -----------------------+--------+------------+-----------+----------\n");
  for (double queue_factor : {0.25, 1.0, 4.0, 16.0, 64.0}) {
    int wehe = 0, detected = 0;
    double retx_sum = 0, delay_sum = 0;
    for (std::size_t i = 0; i < runs; ++i) {
      auto cfg = default_scenario("Netflix", 1400 + i);
      cfg.queue_burst_factor = queue_factor;
      const auto sim = run_simultaneous_experiment(cfg);
      wehe += sim.differentiation_confirmed;
      retx_sum += sim.original.p1.retx_rate;
      delay_sum += sim.original.p1.avg_queuing_delay_ms;
      if (!sim.differentiation_confirmed) continue;
      detected += core::loss_trend_correlation(sim.original.p1.meas,
                                               sim.original.p2.meas,
                                               milliseconds(cfg.rtt1_ms))
                      .common_bottleneck;
    }
    const char* kind = queue_factor <= 1.0   ? "policer"
                       : queue_factor <= 4.0 ? "shallow shaper"
                                             : "deep shaper";
    std::printf("  %6.2f (%-14s) | %2d/%2zu | %7d/%-2d | %8.3f%% | %6.1f ms\n",
                queue_factor, kind, wehe, runs, detected, wehe,
                100.0 * retx_sum / static_cast<double>(runs),
                delay_sum / static_cast<double>(runs));
  }
  std::printf("\nexpected shape: WeHe detects at every depth (throughput is "
              "throttled regardless); loss-trend localization works for "
              "policers and shallow shapers and fades as the deep shaper "
              "replaces loss with delay — the §3.2 limitation.\n");
  obs_run.report().verdict = "completed";
  return obs_run.finish() ? 0 : 1;
}
