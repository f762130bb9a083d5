// Table 3: false-negative rate for different RTTs. RTT_1 is fixed at
// 35 ms; RTT_2 sweeps the 5th-95th percentiles of WeHe-observed RTTs.
//
// Paper shape: FN roughly flat until RTT_2 = 120 ms (85 ms difference),
// where it jumps (TCP 50%, UDP 21.33%) because the interval size scales
// with the RTT and leaves too few intervals per experiment.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "parallel/trials.hpp"

using namespace wehey;
using namespace wehey::experiments;

int main() {
  bench::print_header("Table 3", "FN for different RTT_2 values");
  obs::ObservedSweep obs_run("bench_table3_rtt");
  const auto scale = run_scale();
  const std::vector<double> rtts{15, 25, 35, 60, 120};

  // Flatten the (transport x RTT_2) table into one trial batch, run it
  // through the parallel engine, and aggregate per cell in config order.
  std::vector<ScenarioConfig> configs;
  std::vector<std::size_t> cell_of;  // row * rtts.size() + column
  for (const bool tcp : {true, false}) {
    const std::size_t row = tcp ? 0 : 1;
    for (std::size_t r = 0; r < rtts.size(); ++r) {
      std::uint64_t seed = 11;
      const std::vector<std::string> apps =
          tcp ? std::vector<std::string>{"Netflix"}
              : std::vector<std::string>{"Zoom", "Skype"};
      for (const auto& app : apps) {
        for (double bg_fraction : {0.25, 0.5, 0.75}) {
          for (std::size_t run = 0; run < scale.runs_per_config; ++run) {
            auto cfg = default_scenario(app, seed++);
            cfg.rtt1_ms = 35.0;
            cfg.rtt2_ms = rtts[r];
            cfg.bg_diff_fraction = bg_fraction;
            configs.push_back(cfg);
            cell_of.push_back(row * rtts.size() + r);
          }
        }
      }
    }
  }
  const auto outcomes = parallel::run_trials(configs, bench::run_detectors);
  std::vector<bench::FnStats> cells(2 * rtts.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    cells[cell_of[i]].add(outcomes[i]);
  }

  std::printf("%-10s", "RTT_2(ms)");
  for (double r : rtts) std::printf(" | %7.0f", r);
  std::printf("\n");
  for (std::size_t row = 0; row < 2; ++row) {
    std::printf("%-10s", row == 0 ? "TCP - FN" : "UDP - FN");
    for (std::size_t r = 0; r < rtts.size(); ++r) {
      std::printf(" | %6.1f%%", cells[row * rtts.size() + r].fn_rate());
    }
    std::printf("\n");
  }
  std::printf("\npaper: TCP 21.66/25.86/28.33/31.66/50%%, "
              "UDP 0/0/0/0/21.33%% at 15/25/35/60/120 ms (severe-throttling "
              "background mix)\n");
  obs_run.report().verdict = "completed";
  return obs_run.finish() ? 0 : 1;
}
