// Figure 5: are the testbed conditions realistic? Boxplots of the
// original-replay average retransmission rate and queueing delay from
// (i) our §6.2-style emulation grid and (ii) "past WeHe tests" — here,
// tests against the wild ISP models, playing the role of the public WeHe
// archive the paper mined.
//
// Paper shape: the emulation grid's IQR covers the range seen in the
// wild for retransmissions, and a significant fraction of the delays.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "experiments/wild.hpp"
#include "stats/descriptive.hpp"

using namespace wehey;
using namespace wehey::experiments;

namespace {

void print_box(const char* name, const std::vector<double>& xs) {
  if (xs.empty()) {
    std::printf("  %-22s (no data)\n", name);
    return;
  }
  const auto s = stats::summarize(xs);
  std::printf("  %-22s n=%3zu  min=%7.3f q1=%7.3f med=%7.3f q3=%7.3f "
              "max=%7.3f\n",
              name, s.n, s.min, s.q1, s.median, s.q3, s.max);
}

}  // namespace

int main() {
  bench::print_header("Figure 5", "original-replay retx rate & queueing delay");
  obs::ObservedSweep obs_run("bench_fig5_replay_props");
  const auto scale = run_scale();

  // (i) Our emulation grid (TCP trace, limiter on the common link), one
  // sweep cell; the boxes hold the runs WeHe confirmed.
  std::vector<ScenarioConfig> configs;
  std::uint64_t seed = 3;
  for (double factor : scale.input_rate_factors) {
    for (double queue : scale.queue_burst_factors) {
      for (std::size_t run = 0; run < scale.runs_per_config; ++run) {
        auto cfg = default_scenario("Netflix", seed++);
        cfg.input_rate_factor = factor;
        cfg.queue_burst_factor = queue;
        configs.push_back(cfg);
      }
    }
  }
  std::vector<double> emu_retx, emu_delay;
  for (const auto& r : bench::run_grid(
           obs_run, std::vector<std::string>(configs.size(), "Netflix"),
           [&](std::size_t i, const std::string& id) {
             return run_simultaneous_test_reported(configs[i], id);
           })) {
    if (r.audit.classification == "skipped") continue;
    emu_retx.push_back(r.values.at("retx_rate"));
    emu_delay.push_back(r.values.at("queue_delay_ms"));
  }

  // (ii) "Past WeHe tests": single original replays against the wild ISP
  // models (differentiation detected in the wild).
  std::vector<WildConfig> wild_cfgs;
  for (const auto& isp : default_isp_models()) {
    for (std::uint64_t s = 0; s < (scale.full ? 10u : 4u); ++s) {
      WildConfig cfg;
      cfg.isp = isp;
      cfg.seed = 100 + s * 7;
      wild_cfgs.push_back(cfg);
    }
  }
  const auto wild_reps =
      parallel::parallel_map(wild_cfgs.size(), [&](std::size_t i) {
        return run_wild_phase(wild_cfgs[i], Phase::SingleOriginal);
      });
  std::vector<double> wild_retx, wild_delay;
  for (const auto& rep : wild_reps) {
    wild_retx.push_back(rep.p1.retx_rate);
    wild_delay.push_back(rep.p1.avg_queuing_delay_ms);
  }

  std::printf("(a) average retransmission rate\n");
  print_box("our experiments", emu_retx);
  print_box("past WeHe tests", wild_retx);
  std::printf("\n(b) average queueing delay (ms)\n");
  print_box("our experiments", emu_delay);
  print_box("past WeHe tests", wild_delay);
  std::printf("\npaper: the experiments' IQR covers the full wild "
              "retransmission range and a significant part of the delays\n");
  obs_run.report().verdict = "completed";
  return obs_run.finish() ? 0 : 1;
}
