#include "experiments/history.hpp"

#include "common/check.hpp"
#include "experiments/phase.hpp"
#include "stats/descriptive.hpp"

namespace wehey::experiments {

std::vector<double> build_t_diff_history(const ScenarioConfig& scenario,
                                         const HistoryConfig& cfg) {
  WEHEY_EXPECTS(cfg.replays >= 2);
  std::vector<double> means;
  means.reserve(cfg.replays);
  for (std::size_t i = 0; i < cfg.replays; ++i) {
    ScenarioConfig run = scenario;
    run.seed = scenario.seed * 104729ULL + i * 31ULL + 7ULL;
    const auto rep = run_phase(run, Phase::SingleInverted);
    means.push_back(stats::mean(rep.p1.meas.throughput_samples(100)));
  }
  return t_diff_pairs(means);
}

}  // namespace wehey::experiments
