// §3.2 / §7: per-flow throttling — WeHeY's main limitation and the
// paper's proposed countermeasure.
//
// Three conditions, all with per-flow token buckets on the common link:
//   (1) honest replays (different flow keys): each replay gets its own
//       bucket; the paper's limitation — loss-trend correlation must NOT
//       localize (no common bottleneck actually exists between the two
//       replays' buckets);
//   (2) spoofed replays (same flow key, the §7 trick): both replays share
//       one bucket; the classic correlation test struggles in this
//       two-flows-only regime, but the coupled-bottleneck test (the "new
//       statistical tool" §7 calls for) detects the shared bucket;
//   (3) FP control: spoofed *per-path* keys through separate, identically
//       configured buckets must not be declared coupled.
// Each condition is one sweep cell of §6.2 tests: WeHe = the runs the
// audit evaluated (confirmed on both paths), lossTr = their positive
// verdicts, coupled = the coupled-bottleneck test on the simultaneous
// original replays of every run.
#include <cstdio>

#include "bench_util.hpp"
#include "core/coupling.hpp"

using namespace wehey;
using namespace wehey::experiments;

int main() {
  bench::print_header("§3.2/§7", "per-flow throttling and the countermeasure");
  obs::ObservedSweep obs_run("bench_perflow");
  const auto scale = run_scale();
  const std::size_t runs = scale.full ? 10 : 4;

  const struct {
    const char* label;
    const char* cell;
    bool spoof;
    bool per_flow;
    std::uint64_t seed_base;
  } rows[] = {
      {"per-flow buckets, honest replays (§3.2)", "honest", false, true, 900},
      {"per-flow buckets, same-flow spoof (§7)", "spoofed", true, true, 950},
      {"separate identical buckets, spoofed keys", "separate", true, false,
       990},
  };
  std::vector<ScenarioConfig> configs;
  std::vector<std::string> cells;
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < runs; ++i) {
      auto cfg = default_scenario("Netflix", row.seed_base + i);
      cfg.placement = row.per_flow ? Placement::PerFlowCommonLink
                                   : Placement::NonCommonLinks;
      cfg.spoof_same_flow = row.spoof;
      configs.push_back(cfg);
      cells.push_back(row.cell);
    }
  }
  const auto reports = bench::run_grid(
      obs_run, cells, [&](std::size_t i, const std::string& id) {
        auto res = run_simultaneous_test_reported(configs[i], id);
        const auto& original = res.phases[0];
        res.report.values["coupled"] =
            core::coupled_bottleneck_test(
                original.p1.meas.throughput_samples(100),
                original.p2.meas.throughput_samples(100))
                    .coupled
                ? 1.0
                : 0.0;
        return res;
      });

  std::printf("  %-42s | WeHe  | lossTr | coupled\n", "condition");
  std::printf("  -------------------------------------------+-------+--------+--------\n");
  const int n = static_cast<int>(runs);
  for (const auto& row : rows) {
    const auto a = obs_run.cell_audit(row.cell);
    std::printf("  %-42s | %2d/%2d | %2d/%2d | %2d/%2d\n", row.label,
                static_cast<int>(a.tp + a.fp + a.fn + a.tn), n,
                static_cast<int>(a.tp + a.fp), n,
                static_cast<int>(bench::cell_sum(reports, row.cell, "coupled")),
                n);
  }

  std::printf("\nexpected shape: honest per-flow -> WeHe detects but no\n"
              "localization (the §3.2 limitation); spoofed per-flow -> the\n"
              "coupled-bottleneck test fires; separate buckets -> neither\n"
              "detector fires (FP control)\n");
  obs_run.report().verdict = "completed";
  return obs_run.finish() ? 0 : 1;
}
