// §7 (QUIC): "we believe it would perform similarly to whatever underlying
// congestion control algorithm is selected by QUIC".
//
// WeHeY's detection on the collective-throttling scenario with the
// replayed session carried over QUIC: WeHe confirmation on both paths,
// then loss-trend correlation. The measurement-fidelity comparison (the
// sender-side loss estimate vs the rate-limiter's actual drops, for TCP
// and QUIC) is asserted in tests/test_quic.cpp.
#include <cstdio>
#include <utility>

#include "bench_util.hpp"
#include "core/localizer.hpp"
#include "experiments/phase.hpp"

using namespace wehey;
using namespace wehey::experiments;

namespace {

struct QuicRun {
  bool confirmed = false;
  bool detected = false;
  double loss1 = 0;
};

/// One simultaneous-replay experiment with both paths carried over QUIC,
/// scored like the §6.2 test: localize() on the two phases, with no p0
/// replay and no T_diff.
QuicRun run_quic_experiment(std::uint64_t seed) {
  auto cfg = default_scenario("Netflix", seed);
  const auto derived = derive(cfg);
  trace::BackgroundConfig bg = scenario_background(cfg);
  bg.duration = cfg.replay_duration + kDrainGrace;

  // The §6 phase recipe under the bench's own seeds, with QUIC replays.
  auto run_phase_quic = [&](bool original) {
    Rng rng(seed * 131071ULL + (original ? 1 : 2));
    netsim::Simulator sim;
    FigureOneNetwork net(sim, derived.net, rng);
    attach_backgrounds(net, bg, cfg.bg_diff_fraction,
                       trace::BackgroundMode::kPacket, rng);
    trace::AppTrace t = scenario_trace(cfg);
    if (!original) t = trace::bit_invert(t);
    t = trace::extend(t, cfg.replay_duration);
    const int id1 = net.start_quic_replay(1, t, 0);
    const int id2 = net.start_quic_replay(2, t, kSecondReplayOffset);
    net.run(cfg.replay_duration);
    return std::pair(net.report(id1, 0, cfg.replay_duration),
                     net.report(id2, kSecondReplayOffset,
                                cfg.replay_duration));
  };

  auto [p1_original, p2_original] = run_phase_quic(true);
  auto [p1_inverted, p2_inverted] = run_phase_quic(false);
  core::LocalizationInput in;
  in.p1_original = std::move(p1_original.meas);
  in.p2_original = std::move(p2_original.meas);
  in.p1_inverted = std::move(p1_inverted.meas);
  in.p2_inverted = std::move(p2_inverted.meas);
  in.base_rtt = milliseconds(cfg.rtt1_ms);
  Rng rng(seed);
  const auto loc = core::localize(in, rng);
  return {.confirmed = loc.confirmation_passed,
          .detected =
              loc.verdict == core::Verdict::EvidenceWithinTargetArea,
          .loss1 = in.p1_original.loss_rate()};
}

}  // namespace

int main() {
  bench::print_header("§7 (QUIC)", "WeHeY over a QUIC-carried session");
  obs::ObservedSweep obs_run("bench_quic");
  const auto scale = run_scale();
  const std::size_t runs = scale.full ? 8 : 4;

  int confirmed = 0, detected = 0;
  double loss_sum = 0;
  for (std::size_t i = 0; i < runs; ++i) {
    const auto r = run_quic_experiment(1500 + i);
    confirmed += r.confirmed;
    detected += r.detected;
    loss_sum += r.loss1;
  }
  std::printf("  QUIC replays: WeHe confirmed %d/%zu, loss-trend detected "
              "%d/%d, avg declared-loss rate %.3f\n",
              confirmed, runs, detected, confirmed,
              loss_sum / static_cast<double>(runs));
  std::printf("\n(see bench_bbr for the CC comparison; QUIC's packet-number "
              "loss detection gives the *server* nearly exact, promptly "
              "registered loss events — the same measurement quality WeHeY "
              "gets from UDP clients, without client cooperation. "
              "tests/test_quic.cpp asserts the declared/actual drop ratio "
              "is within 0.9-1.2.)\n");
  obs_run.report().verdict = "completed";
  return obs_run.finish() ? 0 : 1;
}
