// §7 (QUIC): "we believe it would perform similarly to whatever underlying
// congestion control algorithm is selected by QUIC".
//
// Two comparisons on the collective-throttling scenario:
//  (1) measurement fidelity — the sender-side loss estimate vs the
//      rate-limiter's actual drops, for TCP (retransmission-based,
//      over-counted and time-shifted) vs QUIC (packet-number based);
//  (2) WeHeY's detection: WeHe confirmation + loss-trend correlation with
//      the replayed session carried over each transport.
#include <cstdio>

#include "bench_util.hpp"
#include "core/loss_correlation.hpp"
#include "core/wehe.hpp"
#include "experiments/network.hpp"
#include "trace/apps.hpp"
#include "trace/background.hpp"

using namespace wehey;
using namespace wehey::experiments;

namespace {

struct QuicRun {
  bool confirmed = false;
  bool detected = false;
  double loss1 = 0;
};

/// One simultaneous-replay experiment with both paths carried over QUIC.
QuicRun run_quic_experiment(std::uint64_t seed) {
  auto cfg = default_scenario("Netflix", seed);
  const auto derived = derive(cfg);

  auto run_phase_quic = [&](bool original) {
    Rng rng(seed * 131071ULL + (original ? 1 : 2));
    netsim::Simulator sim;
    FigureOneNetwork net(sim, derived.net, rng);
    trace::BackgroundConfig bg;
    bg.target_rate = cfg.bg_rate_per_path;
    bg.duration = cfg.replay_duration + seconds(3);
    bg.flows_per_second =
        std::max(1.5, cfg.bg_rate_per_path / mbps(1.0) * 1.2);
    for (int path = 1; path <= 2; ++path) {
      auto flows = trace::generate_background(bg, rng);
      trace::mark_differentiated(flows, cfg.bg_diff_fraction, rng);
      net.attach_background(path, flows);
    }
    Rng trace_rng(cfg.seed * 0x9e3779b9ULL + 17);
    trace::AppTrace t = trace::make_tcp_app_trace(cfg.base_trace_duration,
                                                  trace_rng);
    if (!original) t = trace::bit_invert(t);
    t = trace::extend(t, cfg.replay_duration);
    const int id1 = net.start_quic_replay(1, t, 0);
    const int id2 = net.start_quic_replay(2, t, milliseconds(5));
    net.run(cfg.replay_duration);
    struct Out {
      PathReport p1, p2;
    } out;
    out.p1 = net.report(id1, 0, cfg.replay_duration);
    out.p2 = net.report(id2, milliseconds(5), cfg.replay_duration);
    return out;
  };

  const auto orig = run_phase_quic(true);
  const auto inv = run_phase_quic(false);
  QuicRun res;
  res.loss1 = orig.p1.meas.loss_rate();
  res.confirmed =
      core::detect_differentiation(orig.p1.meas, inv.p1.meas)
          .differentiation &&
      core::detect_differentiation(orig.p2.meas, inv.p2.meas)
          .differentiation;
  if (res.confirmed) {
    res.detected = core::loss_trend_correlation(orig.p1.meas, orig.p2.meas,
                                                milliseconds(cfg.rtt1_ms))
                       .common_bottleneck;
  }
  return res;
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
