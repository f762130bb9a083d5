// A full in-the-wild localization session, as a WeHeY user would see it:
//
//   1. the standard WeHe test detects differentiation on the path to the
//      client's cellular ISP;
//   2. the client queries the topology database for a pair of servers
//      whose paths converge inside the ISP;
//   3. the simultaneous replays run and WeHeY localizes (or not).
//
//   ./localize_wild [isp-index 0..4] [seed]
#include <cstdio>
#include <cstdlib>

#include "core/localizer.hpp"
#include "core/wehe.hpp"
#include "experiments/wild.hpp"
#include "topology/construction.hpp"
#include "topology/database.hpp"
#include "topology/synthetic.hpp"

using namespace wehey;
using namespace wehey::experiments;

int main(int argc, char** argv) {
  const int isp_index = argc > 1 ? std::atoi(argv[1]) : 0;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;
  const auto isps = default_isp_models();
  if (isp_index < 0 || isp_index >= static_cast<int>(isps.size())) {
    std::fprintf(stderr, "isp-index must be 0..4\n");
    return 1;
  }

  WildConfig cfg;
  cfg.isp = isps[static_cast<std::size_t>(isp_index)];
  cfg.seed = seed;
  std::printf("client ISP: %s (per-client throttling at %.0f%% of the "
              "trace rate%s)\n",
              cfg.isp.name.c_str(), 100.0 * cfg.isp.throttle_factor,
              cfg.isp.delayed_fixed_rate ? ", delayed activation" : "");

  // --- Step 0: the standard WeHe test on p0. ---
  const auto p0_orig = run_wild_phase(cfg, Phase::SingleOriginal);
  const auto p0_inv = run_wild_phase(cfg, Phase::SingleInverted);
  const auto wehe =
      core::detect_differentiation(p0_orig.p1.meas, p0_inv.p1.meas);
  std::printf("WeHe test: original %.2f Mbps vs bit-inverted %.2f Mbps -> "
              "%s (KS p=%.3g)\n",
              wehe.original_mean_bps / 1e6, wehe.inverted_mean_bps / 1e6,
              wehe.differentiation ? "DIFFERENTIATION" : "no differentiation",
              wehe.p_value);
  if (!wehe.differentiation) {
    std::printf("nothing to localize; exiting\n");
    return 0;
  }

  // --- Step 1: topology construction (\xc2\xa73.3). ---
  // Ingest a (synthetic) M-Lab traceroute batch and look this client up.
  Rng rng(seed);
  topology::SyntheticConfig topo_cfg;
  topo_cfg.num_clients = 300;
  topo_cfg.p_client_has_traceroutes = 1.0;  // this client measured recently
  const auto dataset = topology::generate_mlab_dataset(topo_cfg, rng);
  topology::TopologyConstructor tc;
  topology::TopologyDatabase db;
  db.ingest(tc.construct(dataset.records));
  std::printf("topology DB: %zu prefixes with suitable topologies "
              "(%zu server pairs)\n",
              db.prefix_count(), db.pair_count());
  // Pick any client prefix that has a topology, standing in for ours.
  topology::ServerPair pair;
  bool found = false;
  for (const auto& truth : dataset.truth) {
    if (const auto p = db.pick(truth.ip)) {
      pair = *p;
      found = true;
      break;
    }
  }
  if (!found) {
    std::printf("no suitable topology for this client: WeHeY cannot add "
                "evidence beyond WeHe\n");
    return 0;
  }
  std::printf("selected servers %s + %s (paths converge at %s inside the "
              "ISP)\n",
              pair.server1.c_str(), pair.server2.c_str(),
              pair.convergence_ip.c_str());

  // --- Steps 2-4: simultaneous replays and localization. ---
  const auto t_diff = build_wild_t_diff(cfg, 12);
  const auto test = run_wild_test_reported(cfg, t_diff);
  const auto& loc = test.localization;
  std::printf("confirmation on both paths: %s\n",
              loc.confirmation_passed ? "yes" : "no");
  std::printf("throughput comparison: p=%.3g -> %s\n",
              loc.throughput.p_value,
              loc.throughput.common_bottleneck ? "common bottleneck"
                                               : "no evidence");
  if (loc.verdict == core::Verdict::EvidenceWithinTargetArea) {
    std::printf("\nVERDICT: differentiation localized WITHIN %s (%s)\n",
                cfg.isp.name.c_str(),
                loc.mechanism == core::Mechanism::PerClientThrottling
                    ? "per-client throttling"
                    : "collective throttling");
  } else {
    std::printf("\nVERDICT: no evidence beyond WeHe's detection\n");
  }
  return 0;
}
