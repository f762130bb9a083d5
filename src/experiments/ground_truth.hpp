// Ground-truth ledger: maps a run's *configuration* — the side of the
// experiment the simulator controls and the tool under test never sees —
// onto the obs::GroundTruthSection that RunReport v6 serializes. Like
// decision.hpp, this bridge lives in the experiments layer because
// wehey_obs cannot depend on the scenario/wild config types.
//
// Everything here is a pure function of the run config: no RNG is drawn
// and no simulation state is read, so the emitted section is
// byte-identical across WEHEY_THREADS, absorb orders, and repeat runs —
// the property the sweep-level audit fold (and its CI byte-identity
// gate) relies on.
#pragma once

#include "experiments/scenario.hpp"
#include "experiments/wild.hpp"
#include "obs/report.hpp"

namespace wehey::experiments {

/// Ground truth of a Figure-1 scenario run. The limiter placement
/// determines both the mechanism label and whether the configured
/// differentiation sits within the target area (common link = yes; the
/// NonCommonLinks false-positive scenario = no; no limiter = no
/// differentiation at all). Scenario limiters are always-on TBFs, so
/// the activation threshold is 0.
inline obs::GroundTruthSection ground_truth_section(
    const ScenarioConfig& cfg, const ScenarioDerived& derived) {
  obs::GroundTruthSection truth;
  truth.present = true;
  switch (cfg.placement) {
    case Placement::None:
      truth.differentiated = false;
      truth.mechanism = obs::kMechanismNone;
      truth.placement = obs::kPlacementNone;
      truth.within_target_area = false;
      break;
    case Placement::CommonLink:
      truth.differentiated = true;
      truth.mechanism = obs::kMechanismCollectiveTbf;
      truth.placement = obs::kPlacementCommonLink;
      truth.within_target_area = true;
      truth.rate_bps = derived.limiter_rate;
      break;
    case Placement::NonCommonLinks:
      truth.differentiated = true;
      truth.mechanism = obs::kMechanismCollectiveTbf;
      truth.placement = obs::kPlacementNonCommonLinks;
      truth.within_target_area = false;
      truth.rate_bps = derived.limiter_rate;
      break;
    case Placement::PerFlowCommonLink:
      truth.differentiated = true;
      truth.mechanism = obs::kMechanismPerFlowTbf;
      truth.placement = obs::kPlacementCommonLink;
      truth.within_target_area = true;
      truth.rate_bps = derived.limiter_rate;
      break;
  }
  return truth;
}

/// Ground truth of an in-the-wild test. All five ISP models throttle the
/// client per-client on the common link (within the ISP); ISP5's delayed
/// fixed-rate variant additionally carries the received-byte activation
/// threshold that wild_network_params configures into its TbfDisc.
/// `trace_rate` must be the same value the network construction used
/// (the non-inverted trace's average rate). The §5 sanity check does not
/// change the configured network — it changes what a correct tool should
/// *report* — so it rides along as a flag and flips the audit's
/// expected-positive, not the physical truth.
inline obs::GroundTruthSection ground_truth_section(const WildConfig& cfg,
                                                    Rate trace_rate,
                                                    bool sanity_check) {
  obs::GroundTruthSection truth;
  truth.present = true;
  truth.differentiated = true;
  truth.mechanism = cfg.isp.delayed_fixed_rate
                        ? obs::kMechanismDelayedFixedRate
                        : obs::kMechanismPerClientTbf;
  truth.placement = obs::kPlacementCommonLink;
  truth.within_target_area = true;
  truth.rate_bps = cfg.isp.throttle_factor * trace_rate;
  if (cfg.isp.delayed_fixed_rate) {
    // Identical expression to wild_network_params' TbfDisc activation
    // threshold, so the ledger records the byte threshold actually
    // configured.
    truth.activation_bytes = static_cast<std::int64_t>(
        cfg.isp.trigger_seconds * trace_rate / 8.0);
  }
  truth.sanity_check = sanity_check;
  return truth;
}

}  // namespace wehey::experiments
