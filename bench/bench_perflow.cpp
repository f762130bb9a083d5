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
#include <cstdio>

#include "bench_util.hpp"
#include "core/coupling.hpp"
#include "core/loss_correlation.hpp"

using namespace wehey;
using namespace wehey::experiments;

namespace {

struct Outcome {
  int runs = 0;
  int wehe = 0;
  int loss_trend = 0;
  int coupled = 0;
};

Outcome run_batch(bool spoof, bool per_flow, std::uint64_t seed_base,
                  std::size_t runs) {
  Outcome out;
  for (std::size_t i = 0; i < runs; ++i) {
    auto cfg = default_scenario("Netflix", seed_base + i);
    cfg.placement =
        per_flow ? Placement::PerFlowCommonLink : Placement::NonCommonLinks;
    cfg.spoof_same_flow = spoof;
    const auto sim = run_simultaneous_experiment(cfg);
    ++out.runs;
    out.wehe += sim.differentiation_confirmed;
    const Time rtt = milliseconds(cfg.rtt1_ms);
    out.loss_trend += core::loss_trend_correlation(sim.original.p1.meas,
                                                   sim.original.p2.meas, rtt)
                          .common_bottleneck;
    const auto y1 = sim.original.p1.meas.throughput_samples(100);
    const auto y2 = sim.original.p2.meas.throughput_samples(100);
    out.coupled += core::coupled_bottleneck_test(y1, y2).coupled;
  }
  return out;
}

void print_row(const char* label, const Outcome& o) {
  std::printf("  %-42s | %2d/%2d | %2d/%2d | %2d/%2d\n", label, o.wehe,
              o.runs, o.loss_trend, o.runs, o.coupled, o.runs);
}

}  // namespace

int main() {
  bench::print_header("§3.2/§7", "per-flow throttling and the countermeasure");
  obs::ObservedSweep obs_run("bench_perflow");
  const auto scale = run_scale();
  const std::size_t runs = scale.full ? 10 : 4;

  std::printf("  %-42s | WeHe  | lossTr | coupled\n", "condition");
  std::printf("  -------------------------------------------+-------+--------+--------\n");
  print_row("per-flow buckets, honest replays (§3.2)",
            run_batch(false, true, 900, runs));
  print_row("per-flow buckets, same-flow spoof (§7)",
            run_batch(true, true, 950, runs));
  print_row("separate identical buckets, spoofed keys",
            run_batch(true, false, 990, runs));

  std::printf("\nexpected shape: honest per-flow -> WeHe detects but no\n"
              "localization (the §3.2 limitation); spoofed per-flow -> the\n"
              "coupled-bottleneck test fires; separate buckets -> neither\n"
              "detector fires (FP control)\n");
  obs_run.report().verdict = "completed";
  return obs_run.finish() ? 0 : 1;
}
