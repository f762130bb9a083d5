#include "trace/background.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/check.hpp"

namespace wehey::trace {
namespace {

constexpr double kParetoTailProb = 0.1;  ///< share of flows from the tail
/// Heavy tail (infinite variance) like measured internet flow sizes.
constexpr double kParetoShape = 1.3;
/// Overall lognormal sigma of the arrival-intensity modulation, redrawn
/// every kModulationPeriod.
constexpr double kModulationSigma = 0.8;
constexpr Time kModulationPeriod = seconds(2);

}  // namespace

std::vector<BackgroundFlow> generate_background(const BackgroundConfig& cfg,
                                                Rng& rng) {
  WEHEY_EXPECTS(cfg.flows_per_second > 0.0);
  WEHEY_EXPECTS(cfg.duration > 0);

  // Choose the mean flow size so that arrival_rate * mean_size * 8 equals
  // the target rate. The mixture is log-normal (body) + Pareto (tail); we
  // first compute the unscaled mixture mean, then scale sizes.
  const double target_mean_bytes =
      cfg.target_rate / 8.0 / cfg.flows_per_second;

  // Unscaled components: log-normal with median ~20 KB, sigma 1.2;
  // Pareto tail starting at 200 KB.
  const double ln_mu = std::log(20e3);
  const double ln_sigma = 1.2;
  const double ln_mean = std::exp(ln_mu + ln_sigma * ln_sigma / 2.0);
  const double pareto_scale = 200e3;
  const double pareto_mean =
      pareto_scale * kParetoShape / (kParetoShape - 1.0);
  const double mixture_mean = (1.0 - kParetoTailProb) * ln_mean +
                              kParetoTailProb * pareto_mean;
  const double scale = target_mean_bytes / mixture_mean;

  // Two-layer piecewise-constant arrival-intensity modulation (a fast
  // layer at kModulationPeriod and a slow layer at 4x that period),
  // approximating the multi-timescale burstiness of long-range-dependent
  // backbone traffic. Each layer is lognormal with sigma/sqrt(2) so the
  // product has kModulationSigma overall; normalization keeps the
  // long-run mean intensity at flows_per_second.
  const double layer_sigma = kModulationSigma / std::sqrt(2.0);
  const double mean_factor = std::exp(layer_sigma * layer_sigma / 2.0);
  const auto fast_n =
      static_cast<std::size_t>(cfg.duration / kModulationPeriod + 1);
  const auto slow_n =
      static_cast<std::size_t>(cfg.duration / (4 * kModulationPeriod) + 1);
  std::vector<double> fast_layer, slow_layer;
  for (std::size_t i = 0; i < fast_n; ++i) {
    fast_layer.push_back(
        std::min(4.0, std::max(0.25, rng.lognormal(0.0, layer_sigma))) /
        mean_factor);
  }
  for (std::size_t i = 0; i < slow_n; ++i) {
    slow_layer.push_back(
        std::min(4.0, std::max(0.25, rng.lognormal(0.0, layer_sigma))) /
        mean_factor);
  }
  auto intensity_at = [&](Time t) {
    auto fi = static_cast<std::size_t>(t / kModulationPeriod);
    if (fi >= fast_layer.size()) fi = fast_layer.size() - 1;
    auto si = static_cast<std::size_t>(t / (4 * kModulationPeriod));
    if (si >= slow_layer.size()) si = slow_layer.size() - 1;
    return fast_layer[fi] * slow_layer[si];
  };
  // The peak intensity, sampled per fast period.
  double max_intensity = 1.0;
  for (std::size_t i = 0; i < fast_n; ++i) {
    max_intensity = std::max(
        max_intensity, intensity_at(static_cast<Time>(i) * kModulationPeriod));
  }

  // Non-homogeneous Poisson by thinning: candidates arrive at the peak
  // rate and are kept with probability intensity(t) / max_intensity.
  std::vector<BackgroundFlow> flows;
  const double mean_gap = 1.0 / (cfg.flows_per_second * max_intensity);
  Time at = seconds(rng.exponential(mean_gap));
  while (at < cfg.duration) {
    if (!rng.bernoulli(intensity_at(at) / max_intensity)) {
      at += seconds(rng.exponential(mean_gap));
      continue;
    }
    double bytes;
    if (rng.bernoulli(kParetoTailProb)) {
      bytes = rng.pareto(pareto_scale, kParetoShape);
      // Truncate the tail so one monster flow cannot dominate a short
      // experiment (CAIDA segments are similarly bounded in time).
      bytes = std::min(bytes, 40.0 * pareto_scale);
    } else {
      bytes = rng.lognormal(ln_mu, ln_sigma);
    }
    BackgroundFlow f;
    f.start = at;
    f.bytes = std::max<std::int64_t>(400, static_cast<std::int64_t>(bytes * scale));
    flows.push_back(f);
    at += seconds(rng.exponential(mean_gap));
  }
  return flows;
}

void mark_differentiated(std::vector<BackgroundFlow>& flows, double fraction,
                         Rng& rng) {
  WEHEY_EXPECTS(fraction >= 0.0 && fraction <= 1.0);
  for (auto& f : flows) f.differentiated = rng.bernoulli(fraction);
}

std::int64_t total_bytes(const std::vector<BackgroundFlow>& flows) {
  std::int64_t sum = 0;
  for (const auto& f : flows) sum += f.bytes;
  return sum;
}

BackgroundMode background_mode_from_env() {
  const char* v = std::getenv("WEHEY_BG_MODE");
  if (v == nullptr || v[0] == 0) return BackgroundMode::kPacket;
  const std::string s(v);
  if (s == "fluid") return BackgroundMode::kFluid;
  return BackgroundMode::kPacket;
}

BackgroundMode resolve_background_mode(BackgroundMode mode) {
  return mode == BackgroundMode::kEnv ? background_mode_from_env() : mode;
}

std::int64_t FluidProfile::total_bytes() const {
  const double dt = to_seconds(step);
  double bits = 0.0;
  for (const double r : dflt) bits += r * dt;
  for (const double r : diff) bits += r * dt;
  double bytes = bits / 8.0;
  for (const double b : burst_dflt) bytes += b;
  for (const double b : burst_diff) bytes += b;
  return static_cast<std::int64_t>(std::llround(bytes));
}

FluidProfile fluid_profile(const std::vector<BackgroundFlow>& flows,
                           const BackgroundConfig& cfg, Time step) {
  WEHEY_EXPECTS(step > 0);
  FluidProfile out;
  out.step = step;
  const auto segments =
      static_cast<std::size_t>((cfg.duration + step - 1) / step);
  out.dflt.assign(segments, 0.0);
  out.diff.assign(segments, 0.0);
  out.burst_dflt.assign(segments, 0.0);
  out.burst_diff.assign(segments, 0.0);
  if (segments == 0) return out;

  // Slow-start head: a TCP flow's first bytes hit the bottleneck as
  // back-to-back windows before ACK clocking paces it, and that burst —
  // not the flow's average rate — is what delays competing traffic. Up to
  // this much of each flow is delivered as an unpaced burst at the flow's
  // start; the remainder is paced below. 80 KB ≈ the exponential-growth
  // window a flow reaches before its first loss at these bandwidth-delay
  // products, calibrated so fluid-mode grid verdict tallies track the
  // packet backend on the Table 1 wild grid.
  const double burst_head = 80.0 * 1024.0;

  // Per-flow pacing: a flow's bytes enter the network over a window sized
  // by this rate, standing in for its TCP ramp. Mice fit in one segment;
  // elephants stretch across many, so the profile keeps the long-timescale
  // intensity trend of the flow-level workload.
  const double pace = std::max(cfg.target_rate * 0.25, mbps(1.0));
  const double step_s = to_seconds(step);
  const double end_s = static_cast<double>(segments) * step_s;

  for (const auto& f : flows) {
    auto& cls = f.differentiated ? out.diff : out.dflt;
    auto& burst_cls = f.differentiated ? out.burst_diff : out.burst_dflt;
    double bytes = static_cast<double>(f.bytes);
    double s0 = to_seconds(f.start);
    if (s0 >= end_s) s0 = end_s - step_s;  // clamp into the last segment
    const auto start_seg = std::min(
        static_cast<std::size_t>(s0 / step_s), segments - 1);
    const double head = std::min(bytes, burst_head);
    burst_cls[start_seg] += head;
    bytes -= head;
    if (bytes <= 0.0) continue;
    const double window = std::max(step_s, bytes * 8.0 / pace);
    // Truncate the spread window at the profile end: the tail mass folds
    // back proportionally so bytes are conserved exactly.
    const double s1 = std::min(s0 + window, end_s);
    const double span = std::max(s1 - s0, step_s * 1e-6);
    // Distribute bytes over the overlapped segments, proportional to
    // overlap; add as rate (bits/sec over the segment).
    const auto first = static_cast<std::size_t>(s0 / step_s);
    auto last = static_cast<std::size_t>(s1 / step_s);
    if (last >= segments) last = segments - 1;
    double assigned = 0.0;
    for (std::size_t i = first; i <= last; ++i) {
      const double lo = std::max(s0, static_cast<double>(i) * step_s);
      const double hi =
          std::min(s1, static_cast<double>(i + 1) * step_s);
      if (hi <= lo) continue;
      const double share = bytes * (hi - lo) / span;
      cls[i] += share * 8.0 / step_s;
      assigned += share;
    }
    // Rounding leftovers (and the truncated tail) land in the last
    // overlapped segment.
    if (assigned < bytes) cls[last] += (bytes - assigned) * 8.0 / step_s;
  }
  return out;
}

}  // namespace wehey::trace
