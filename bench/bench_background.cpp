// Packet vs fluid background carrier: events/sec and wall time for one
// wild phase at the Table-1 operating point (the client's light 300 kbps
// background) and at a heavy 4 Mbps point.
//
// The replay itself dominates a wild phase, so the headline number is the
// *background-attributable* event reduction: events(bg) - events(~no bg),
// per carrier. The fluid carrier's cost is bounded by its rate-step
// events, independent of the background rate.
//
// Results append a "background" block to BENCH_parallel.json (or
// WEHEY_BENCH_JSON) next to bench_event_loop's blocks; CI gates
// background.table1.event_reduction.
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
  obs::ObservedSweep observed("bench_background");

  const auto scale = experiments::run_scale();
  const Time duration = scale.replay_duration;
  // generate_background needs a positive rate; 1 kbps is the "almost no
  // background" baseline for the attributable-event difference.
  const Rate none = kbps(1);
  const OperatingPoint points[] = {
      {"table1", kbps(300)},  // Table-1 wild grid: bg_rate_per_path default
      {"heavy", mbps(4.0)},
  };

  auto background = bench::jobj();
  bench::jset(background, "replay_seconds", bench::jnum(to_seconds(duration)));
  std::printf("%-8s %14s %14s %12s %12s %10s\n", "point", "packet_events",
              "fluid_events", "packet_s", "fluid_s", "bg_reduc");
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

    std::printf("%-8s %14llu %14llu %12.3f %12.3f %9.1fx\n", point.name,
                static_cast<unsigned long long>(packet.events),
                static_cast<unsigned long long>(fluid.events), packet.seconds,
                fluid.seconds, reduction);

    auto block = bench::jobj();
    bench::jset(block, "bg_rate_mbps", bench::jnum(point.bg_rate / 1e6));
    bench::jset(block, "packet_events",
                bench::jnum(static_cast<double>(packet.events)));
    bench::jset(block, "fluid_events",
                bench::jnum(static_cast<double>(fluid.events)));
    bench::jset(block, "packet_seconds", bench::jnum(packet.seconds));
    bench::jset(block, "fluid_seconds", bench::jnum(fluid.seconds));
    bench::jset(block, "packet_events_per_sec",
                bench::jnum(packet.events_per_sec()));
    bench::jset(block, "fluid_events_per_sec",
                bench::jnum(fluid.events_per_sec()));
    bench::jset(block, "packet_bg_events", bench::jnum(packet_bg));
    bench::jset(block, "fluid_bg_events", bench::jnum(fluid_bg));
    bench::jset(block, "event_reduction", bench::jnum(reduction));
    bench::jset(background, point.name, std::move(block));

    observed.report().values[std::string(point.name) + "_event_reduction"] =
        reduction;
  }

  const std::string path = bench::bench_json_path();
  if (bench::update_bench_block(path, "background", std::move(background))) {
    std::printf("\nwrote %s (background block)\n", path.c_str());
  } else {
    std::printf("\ncould not write %s\n", path.c_str());
    return 1;
  }
  return 0;
}
