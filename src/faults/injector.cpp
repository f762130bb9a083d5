#include "faults/injector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace wehey::faults {

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan), rng_(plan.seed * 0x9e3779b97f4a7c15ULL + 0xFA17ULL) {
  budget_.reserve(plan_.faults.size());
  for (const auto& spec : plan_.faults) budget_.push_back(spec.count);
}

bool FaultInjector::fire(std::size_t i, int path) {
  const auto& spec = plan_.faults[i];
  if (spec.path != 0 && path != 0 && spec.path != path) return false;
  if (budget_[i] == 0) return false;
  // Draw even at probability 1.0 so the consumed stream depends only on
  // the opportunity sequence, not on the plan's probabilities.
  const bool hit = rng_.uniform() < spec.probability;
  if (!hit) return false;
  if (budget_[i] > 0) --budget_[i];
  return true;
}

ReplayFault FaultInjector::on_replay_start(int path) {
  ReplayFault fault;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const auto& spec = plan_.faults[i];
    if (spec.kind == FaultKind::ReplayAbort) {
      // First firing abort wins; later abort specs draw no RNG.
      if (fault.abort || !fire(i, path)) continue;
      fault.abort = true;
      fault.at_fraction = spec.at_fraction;
      fault.after_bytes = spec.after_bytes;
      ++stats_[spec.kind];
    } else if (spec.kind == FaultKind::EventStorm) {
      if (fault.storm || !fire(i, path)) continue;
      fault.storm = true;
      fault.storm_at_fraction = spec.at_fraction;
      fault.storm_interval = spec.storm_interval;
      ++stats_[spec.kind];
    }
  }
  return fault;
}

ControlFault FaultInjector::on_control_exchange() {
  ControlFault fault;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const auto kind = plan_.faults[i].kind;
    if (kind == FaultKind::ControlDrop && !fault.dropped && fire(i, 0)) {
      fault.dropped = true;
      ++stats_[kind];
    } else if (kind == FaultKind::ControlDelay && fire(i, 0)) {
      fault.extra_delay += plan_.faults[i].delay;
      ++stats_[kind];
    }
  }
  return fault;
}

bool FaultInjector::on_topology_lookup() {
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    if (plan_.faults[i].kind != FaultKind::TopologyUnavailable) continue;
    if (fire(i, 0)) {
      ++stats_[plan_.faults[i].kind];
      return true;
    }
  }
  return false;
}

bool FaultInjector::on_measurement_upload(int path,
                                          netsim::ReplayMeasurement& m) {
  bool touched = false;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const auto& spec = plan_.faults[i];
    switch (spec.kind) {
      case FaultKind::MeasurementTruncate:
        if (fire(i, path)) {
          truncate_measurement(m, spec.keep_fraction);
          ++stats_[spec.kind];
          touched = true;
        }
        break;
      case FaultKind::MeasurementCorrupt:
        if (fire(i, path)) {
          corrupt_measurement(m, spec.corrupt_fraction, rng_);
          ++stats_[spec.kind];
          touched = true;
        }
        break;
      case FaultKind::ClockSkew:
        if (fire(i, path)) {
          skew_measurement(m, spec.delay);
          ++stats_[spec.kind];
          touched = true;
        }
        break;
      default: break;
    }
  }
  return touched;
}

bool FaultInjector::on_traceroute(int path,
                                  topology::TracerouteRecord& record) {
  if (record.hops.empty()) return false;
  bool touched = false;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const auto& spec = plan_.faults[i];
    if (spec.kind == FaultKind::TracerouteDrop) {
      if (!fire(i, path)) continue;
      // An ICMP black hole near the client: the tail of the path stops
      // responding, so the last *responding* hop no longer carries the
      // destination's ASN (filter condition (a)).
      const double frac = std::clamp(spec.hop_fraction, 0.0, 1.0);
      const auto n = record.hops.size();
      auto dropped = static_cast<std::size_t>(
          std::ceil(static_cast<double>(n) * frac));
      dropped = std::clamp<std::size_t>(dropped, 1, n);
      for (std::size_t h = n - dropped; h < n; ++h) {
        record.hops[h].responded = false;
      }
      ++stats_[spec.kind];
      touched = true;
    } else if (spec.kind == FaultKind::TracerouteGarble) {
      if (!fire(i, path)) continue;
      // One hop answers with a second address across probes (IP
      // aliasing), violating filter condition (b).
      const auto h = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<int>(record.hops.size()) - 1));
      auto& hop = record.hops[h];
      if (!hop.reported_ips.empty()) {
        hop.reported_ips.push_back(hop.reported_ips.front() + "/alias");
      }
      ++stats_[spec.kind];
      touched = true;
    }
  }
  return touched;
}

void truncate_measurement(netsim::ReplayMeasurement& m,
                          double keep_fraction) {
  keep_fraction = std::clamp(keep_fraction, 0.0, 1.0);
  const Time cut =
      m.start + static_cast<Time>(static_cast<double>(m.duration()) *
                                  keep_fraction);
  auto drop_after = [cut](std::vector<Time>& ts) {
    ts.erase(std::remove_if(ts.begin(), ts.end(),
                            [cut](Time t) { return t > cut; }),
             ts.end());
  };
  drop_after(m.tx_times);
  drop_after(m.loss_times);
  m.deliveries.erase(
      std::remove_if(m.deliveries.begin(), m.deliveries.end(),
                     [cut](const netsim::Delivery& d) { return d.at > cut; }),
      m.deliveries.end());
  // Latency samples arrive in series order: the same prefix survives.
  const auto keep_rtt = static_cast<std::size_t>(
      static_cast<double>(m.rtt_ms.size()) * keep_fraction);
  m.rtt_ms.resize(std::min(m.rtt_ms.size(), keep_rtt));
  m.end = cut;
}

void corrupt_measurement(netsim::ReplayMeasurement& m, double fraction,
                         Rng& rng) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  for (auto& sample : m.rtt_ms) {
    if (rng.uniform() >= fraction) continue;
    switch (rng.uniform_int(0, 2)) {
      case 0: sample = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: sample = std::numeric_limits<double>::infinity(); break;
      default: sample = -sample; break;
    }
  }
  // A slice of event timestamps lands far outside the replay window, as
  // a buggy uploader emitting uninitialized fields would produce.
  const Time far = m.end + 1000 * (m.end - m.start + 1);
  for (auto& t : m.tx_times) {
    if (rng.uniform() < fraction * 0.25) t = far;
  }
  for (auto& d : m.deliveries) {
    if (rng.uniform() < fraction * 0.25) d.at = far;
  }
}

void skew_measurement(netsim::ReplayMeasurement& m, Time skew) {
  m.start += skew;
  m.end += skew;
  for (auto& t : m.tx_times) t += skew;
  for (auto& t : m.loss_times) t += skew;
  for (auto& d : m.deliveries) d.at += skew;
}

}  // namespace wehey::faults
