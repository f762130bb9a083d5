// §3.2: WeHeY "can only localize traffic differentiation that ... causes
// packet loss. [It] cannot localize ... deep shapers that avoid packet
// loss."
//
// The token bucket's queue depth turns it from a policer into a shaper:
// sweeping the queue from shallow to deep shows WeHe's detection surviving
// throughout while loss-trend localization falls off. The deep shaper does
// not remove the loss, it moves it: the limiter drops less, and the
// non-common FIFOs, which the two paths do not share, take a growing share
// of the drops. Each queue depth is one sweep cell of §6.2 tests:
// WeHe = the runs the audit evaluated (confirmed on both paths),
// loss-trend = their positive verdicts; the two drop columns are per-run
// means over both phases.
#include <cstdio>

#include "bench_util.hpp"

using namespace wehey;
using namespace wehey::experiments;

int main() {
  bench::print_header("§3.2", "policer vs shaper: the packet-loss assumption");
  obs::ObservedSweep obs_run("bench_shaper_limitation");
  const auto scale = run_scale();
  const std::size_t runs = scale.full ? 8 : 3;

  const struct {
    double queue_factor;
    const char* cell;
  } rows[] = {{0.25, "queue0_25"},
              {1.0, "queue1"},
              {4.0, "queue4"},
              {16.0, "queue16"},
              {64.0, "queue64"}};
  std::vector<ScenarioConfig> configs;
  std::vector<std::string> cells;
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < runs; ++i) {
      auto cfg = default_scenario("Netflix", 1400 + i);
      cfg.queue_burst_factor = row.queue_factor;
      configs.push_back(cfg);
      cells.push_back(row.cell);
    }
  }
  const auto reports = bench::run_grid(
      obs_run, cells, [&](std::size_t i, const std::string& id) {
        auto res = run_simultaneous_test_reported(configs[i], id);
        const auto& drops = res.metrics.counters();
        res.report.values["limiter_drops"] =
            static_cast<double>(drops.at("net.limiter_drops").value());
        res.report.values["nc_fifo_drops"] =
            static_cast<double>(drops.at("net.nc1.drops").value() +
                                drops.at("net.nc2.drops").value());
        return res;
      });

  std::printf("  %-22s | %-6s | %-10s | %-9s | %-11s | %-8s | %s\n",
              "queue (x burst)", "WeHe", "loss-trend", "retx", "queue delay",
              "limiter", "nc FIFOs");
  std::printf("  -----------------------+--------+------------+-----------+-------------+----------+---------\n");
  const double n = static_cast<double>(runs);
  for (const auto& row : rows) {
    const auto a = obs_run.cell_audit(row.cell);
    const int wehe = static_cast<int>(a.tp + a.fp + a.fn + a.tn);
    const char* kind = row.queue_factor <= 1.0   ? "policer"
                       : row.queue_factor <= 4.0 ? "shallow shaper"
                                                 : "deep shaper";
    std::printf(
        "  %6.2f (%-14s) | %2d/%2zu | %7d/%-2d | %8.3f%% | %8.1f ms | %8.0f | "
        "%8.0f\n",
        row.queue_factor, kind, wehe, runs, static_cast<int>(a.tp + a.fp),
        wehe, 100.0 * bench::cell_sum(reports, row.cell, "retx_rate") / n,
        bench::cell_sum(reports, row.cell, "queue_delay_ms") / n,
        bench::cell_sum(reports, row.cell, "limiter_drops") / n,
        bench::cell_sum(reports, row.cell, "nc_fifo_drops") / n);
  }
  std::printf("\nexpected shape: WeHe detects at every depth (throughput is "
              "throttled regardless); loss-trend localization works for "
              "policers and shallow shapers and fades as the queue deepens "
              "— the §3.2 limitation. The deep shaper does not remove the "
              "loss: the limiter drops less, and the loss moves to the "
              "non-common FIFOs, which the two replays do not share.\n");
  obs_run.report().verdict = "completed";
  return obs_run.finish() ? 0 : 1;
}
