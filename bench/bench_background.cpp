// Packet vs fluid background carrier: events/sec and wall time for one
// wild phase at the Table-1 operating point (the client's light 300 kbps
// background) and at a heavy 4 Mbps point.
//
// The replay itself dominates a wild phase, so the headline number is the
// *background-attributable* event reduction: events(bg) - events(~no bg),
// per carrier. The fluid carrier's cost is bounded by its rate-step
// events, independent of the background rate.
//
// The event counts and reductions are deterministic and go into the
// bench's RunReport values, "<point>_<name>"; CI compares them against
// bench/baselines/bench_background.report.json and floors both
// "<point>_event_reduction" at 10x. The wall times and events/sec are
// printed only.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "experiments/wild.hpp"
#include "obs/recorder.hpp"
#include "trace/background.hpp"

namespace wehey {
namespace {

using experiments::Phase;
using experiments::WildConfig;

struct PhaseCost {
  std::uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
  }
};

/// One wild phase (ISP1, FAST/FULL replay duration) under the given
/// background carrier and rate, with a dedicated metrics recorder
/// counting simulator dispatches.
PhaseCost run_phase(trace::BackgroundMode mode, Rate bg_rate,
                    Time replay_duration) {
  WildConfig cfg;
  cfg.isp = experiments::default_isp_models()[0];
  cfg.replay_duration = replay_duration;
  cfg.bg_rate_per_path = bg_rate;
  cfg.bg_mode = mode;
  obs::Recorder rec(/*metrics_on=*/true, /*trace_on=*/false);
  const auto start = std::chrono::steady_clock::now();
  {
    obs::ScopedRecorder bind(&rec);
    (void)experiments::run_wild_phase(cfg, Phase::SimOriginal);
  }
  PhaseCost cost;
  cost.seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  cost.events = rec.metrics().counter("sim.events").value();
  return cost;
}

struct OperatingPoint {
  const char* name;
  Rate bg_rate;
};

}  // namespace
}  // namespace wehey

int main() {
  using namespace wehey;
  bench::print_header("background", "packet vs fluid background carrier");
  obs::ObservedSweep obs_run("bench_background");

  const auto scale = experiments::run_scale();
  const Time duration = scale.replay_duration;
  // generate_background needs a positive rate; 1 kbps is the "almost no
  // background" baseline for the attributable-event difference.
  const Rate none = kbps(1);
  const OperatingPoint points[] = {
      {"table1", kbps(300)},  // Table-1 wild grid: bg_rate_per_path default
      {"heavy", mbps(4.0)},
  };

  std::printf("%-8s %14s %14s %12s %12s %13s %13s %10s\n", "point",
              "packet_events", "fluid_events", "packet_s", "fluid_s",
              "packet_Mev/s", "fluid_Mev/s", "bg_reduc");
  for (const auto& point : points) {
    const PhaseCost packet =
        run_phase(trace::BackgroundMode::kPacket, point.bg_rate, duration);
    const PhaseCost packet0 =
        run_phase(trace::BackgroundMode::kPacket, none, duration);
    const PhaseCost fluid =
        run_phase(trace::BackgroundMode::kFluid, point.bg_rate, duration);
    const PhaseCost fluid0 =
        run_phase(trace::BackgroundMode::kFluid, none, duration);

    const double packet_bg =
        static_cast<double>(packet.events) - static_cast<double>(packet0.events);
    // The fluid carrier's attributable cost can vanish in the difference
    // (replay coupling); floor it at its step events (two sources, one
    // step per 100 ms) so the reduction never divides by ~zero.
    const double step_floor = 2.0 * to_seconds(duration + seconds(3)) * 10.0;
    const double fluid_bg = std::max(
        static_cast<double>(fluid.events) - static_cast<double>(fluid0.events),
        step_floor);
    const double reduction = packet_bg > 0.0 ? packet_bg / fluid_bg : 0.0;

    std::printf("%-8s %14llu %14llu %12.3f %12.3f %13.2f %13.2f %9.1fx\n",
                point.name, static_cast<unsigned long long>(packet.events),
                static_cast<unsigned long long>(fluid.events), packet.seconds,
                fluid.seconds, packet.events_per_sec() / 1e6,
                fluid.events_per_sec() / 1e6, reduction);

    auto& values = obs_run.report().values;
    const std::string key = std::string(point.name) + "_";
    values[key + "bg_rate_mbps"] = point.bg_rate / 1e6;
    values[key + "packet_events"] = static_cast<double>(packet.events);
    values[key + "fluid_events"] = static_cast<double>(fluid.events);
    values[key + "packet_bg_events"] = packet_bg;
    values[key + "fluid_bg_events"] = fluid_bg;
    values[key + "event_reduction"] = reduction;
  }
  return obs_run.finish() ? 0 : 1;
}
