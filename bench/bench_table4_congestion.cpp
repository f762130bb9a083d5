// Table 4: false-negative rate under severe congestion on the non-common
// link sequences l1/l2 (input-traffic-to-bandwidth ratio 0.95/1.05/1.15),
// with the rate-limiter still on the common link.
//
// Paper shape: UDP FN stays near zero (0/0.38/2.38%); TCP FN grows with
// the congestion level (19.3/28/34.88%) as l1/l2 become the dominant
// bottlenecks and decorrelate the two paths' losses.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace wehey;
using namespace wehey::experiments;

int main() {
  bench::print_header("Table 4", "FN under severe congestion on l1/l2");
  obs::ObservedSweep obs_run("bench_table4_congestion");
  const auto scale = run_scale();
  const std::vector<double> utils{0.95, 1.05, 1.15};

  // One grid over (transport x utilization); each table cell is one
  // sweep cell.
  const auto cell = [&](std::size_t row, std::size_t u) {
    return std::string(row == 0 ? "UDP" : "TCP") + "-util" +
           std::to_string(static_cast<int>(std::lround(utils[u] * 100)));
  };
  std::vector<ScenarioConfig> configs;
  std::vector<std::string> cells;
  for (const bool udp : {true, false}) {
    const std::size_t row = udp ? 0 : 1;
    for (std::size_t u = 0; u < utils.size(); ++u) {
      std::uint64_t seed = 19;
      const std::vector<std::string> apps =
          udp ? std::vector<std::string>{"Zoom", "MSTeams"}
              : std::vector<std::string>{"Netflix"};
      for (const auto& app : apps) {
        for (double bg_fraction : {0.25, 0.5, 0.75}) {
          for (std::size_t run = 0; run < scale.runs_per_config; ++run) {
            auto cfg = default_scenario(app, seed++);
            cfg.nc_utilization = utils[u];
            cfg.bg_diff_fraction = bg_fraction;
            configs.push_back(cfg);
            cells.push_back(cell(row, u));
          }
        }
      }
    }
  }
  bench::run_grid(obs_run, cells, [&](std::size_t i, const std::string& id) {
    return run_simultaneous_test_reported(configs[i], id);
  });

  std::printf("%-10s | %-11s | %-13s | %s\n", "", "0.95 (low)",
              "1.05 (medium)", "1.15 (high)");
  for (std::size_t row = 0; row < 2; ++row) {
    std::printf("%-10s", row == 0 ? "UDP - FN" : "TCP - FN");
    for (std::size_t u = 0; u < utils.size(); ++u) {
      const auto a = obs_run.cell_audit(cell(row, u));
      std::printf(" | %s", bench::percent(a.fn, a.tp + a.fn, 11, 1).c_str());
    }
    std::printf("\n");
  }
  std::printf("\npaper: UDP 0/0.38/2.38%%, TCP 19.3/28/34.88%%\n");
  obs_run.report().verdict = "completed";
  return obs_run.finish() ? 0 : 1;
}
