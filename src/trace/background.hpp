// Synthetic background traffic standing in for the CAIDA equinix-chicago
// trace segments used in §6.1 ("average rate 168 Mbps with ~400 active TCP
// flows every second", replayed at the application layer).
//
// We generate a flow-level workload with Poisson flow arrivals and
// heavy-tailed (log-normal body + Pareto tail) flow sizes, which matches
// the well-known mix of short mice and long elephants in backbone traces.
// Real backbone traffic is self-similar, with offered load trending up
// and down over seconds — the very arrival-rate trend loss-trend
// correlation keys on — so the arrival intensity is modulated by
// piecewise-constant lognormal factors. The tail share and shape and the
// modulation's sigma and period are constants in background.cpp.
// Flows are handed to real TCP senders in the simulator, so their packet
// dynamics (burstiness, loss response) come from congestion control, just
// like the paper's application-layer replay.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace wehey::trace {

/// One background TCP flow: starts at `start`, transfers `bytes`.
struct BackgroundFlow {
  Time start = 0;
  std::int64_t bytes = 0;
  bool differentiated = false;  ///< assigned dscp=1 (same class as the
                                ///< original trace) by the scenario
};

struct BackgroundConfig {
  Rate target_rate = mbps(20);  ///< long-run average offered load
  Time duration = seconds(60);
  double flows_per_second = 40;   ///< Poisson arrival rate (before modulation)
};

/// Generate a background workload. The size distribution is scaled so the
/// expected aggregate offered rate matches `cfg.target_rate`.
std::vector<BackgroundFlow> generate_background(const BackgroundConfig& cfg,
                                                Rng& rng);

/// Mark a uniformly-random `fraction` of the flows as differentiated
/// (directed through the rate-limiter together with the original trace,
/// per §6.1 "% of background").
void mark_differentiated(std::vector<BackgroundFlow>& flows, double fraction,
                         Rng& rng);

/// Total bytes across all flows.
std::int64_t total_bytes(const std::vector<BackgroundFlow>& flows);

// ---------------------------------------------------------------------------
// Hybrid fluid/packet simulation: the fluid backend models the background
// aggregate as a piecewise-constant offered-rate process instead of real
// per-flow TCP senders. The workload below is derived from the *same*
// generate_background / mark_differentiated draws as the packet backend,
// so switching modes consumes identical RNG streams and leaves every
// downstream draw (replay re-timing, access-link jitter, ...) unchanged.

/// Which backend carries the background aggregate of a scenario.
enum class BackgroundMode {
  kEnv,     ///< resolve from WEHEY_BG_MODE at run time (the default)
  kPacket,  ///< one real TCP sender per flow (full packet fidelity)
  kFluid,   ///< aggregate fluid-rate model (hybrid simulation)
};

/// Parse WEHEY_BG_MODE: "packet" (default) or "fluid".
BackgroundMode background_mode_from_env();

/// Resolve kEnv against the environment; kPacket/kFluid pass through.
BackgroundMode resolve_background_mode(BackgroundMode mode);

/// Piecewise-constant per-class offered rate derived from a flow-level
/// workload: segment i covers [i*step, (i+1)*step). Byte-conserving —
/// the segment integral equals the flows' total bytes per class.
struct FluidProfile {
  Time step = 100 * kMillisecond;
  std::vector<Rate> dflt;  ///< default-class offered rate per segment
  std::vector<Rate> diff;  ///< differentiated-class offered rate per segment
  /// Unpaced head-of-flow bytes landing at the start of each segment: the
  /// slow-start burst every TCP flow fires before ACK clocking paces it.
  /// Carried separately from the rates because the burst's effect on
  /// packet traffic is queueing delay (a brief link busy period), not a
  /// sustained capacity share.
  std::vector<double> burst_dflt;
  std::vector<double> burst_diff;
  /// Integral of both classes over all segments (rates and bursts), bytes.
  std::int64_t total_bytes() const;
  bool empty() const { return dflt.empty() && diff.empty(); }
};

/// Convert a flow workload into a FluidProfile. Each flow's bytes are
/// spread from its start time at a pacing rate of max(target_rate / 4,
/// 1 Mbps) — mice land inside one segment, elephants ramp over several,
/// which preserves the arrival-intensity modulation trend the loss-trend
/// correlation keys on. Mass past `cfg.duration` folds into the last
/// segment so the profile conserves bytes exactly.
FluidProfile fluid_profile(const std::vector<BackgroundFlow>& flows,
                           const BackgroundConfig& cfg,
                           Time step = 100 * kMillisecond);

}  // namespace wehey::trace
