#include "netsim/fluid.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace wehey::netsim {

namespace {

/// Fraction of a link's nominal capacity the fluid aggregate may use; the
/// remainder is headroom so packet traffic never sees a zero-rate link
/// even under full fluid pressure (Link floors its effective bandwidth
/// too — this keeps the fluid model consistent with that floor).
constexpr double kLinkShare = 0.95;

/// Standing fluid queue allowed per hop before overflow counts as loss:
/// ~100 ms at the link's current capacity, the same order as the packet
/// FIFOs in front of these links.
constexpr double kQueueSeconds = 0.1;

}  // namespace

FluidSource::FluidSource(Simulator& sim, FluidSegments segments,
                         std::vector<Link*> path)
    : sim_(sim), seg_(std::move(segments)) {
  WEHEY_EXPECTS(seg_.step > 0);
  WEHEY_EXPECTS(!path.empty());
  hops_.reserve(path.size());
  for (Link* link : path) {
    WEHEY_EXPECTS(link != nullptr);
    link->share_with_fluid();
    Hop hop;
    hop.link = link;
    hops_.push_back(hop);
  }
}

void FluidSource::start(Time offset) {
  WEHEY_EXPECTS(offset >= 0);
  if (seg_.segments() == 0) return;
  sim_.schedule(seg_.step + offset, [this] { step_once(); });
}

void FluidSource::detach() {
  for (Hop& hop : hops_) {
    if (hop.contribution != 0.0) {
      hop.link->add_fluid_load(-hop.contribution);
      hop.contribution = 0.0;
    }
  }
}

void FluidSource::step_once() {
  const Time now = sim_.now();
  const double dt = to_seconds(seg_.step);
  const double rate_dflt =
      index_ < seg_.dflt.size() ? seg_.dflt[index_] : 0.0;
  const double rate_diff =
      index_ < seg_.diff.size() ? seg_.diff[index_] : 0.0;

  // Head-of-flow bursts first: they hit the bottleneck ahead of the
  // smooth process. Each hop's disc admits them (token drain, trigger
  // bytes, RED probability), then the admitted bytes occupy the link as
  // one busy period — packet traffic queues behind them just as it would
  // behind the burst's packets.
  double burst_dflt =
      index_ < seg_.burst_dflt.size() ? seg_.burst_dflt[index_] : 0.0;
  double burst_diff =
      index_ < seg_.burst_diff.size() ? seg_.burst_diff[index_] : 0.0;
  if (burst_dflt > 0.0 || burst_diff > 0.0) {
    offered_ += burst_dflt + burst_diff;
    const double burst_in = burst_dflt + burst_diff;
    for (Hop& hop : hops_) {
      QueueDisc& disc = hop.link->disc();
      if (burst_dflt > 0.0) {
        burst_dflt = disc.fluid_offer(burst_dflt, kDscpDefault, now);
      }
      if (burst_diff > 0.0) {
        burst_diff = disc.fluid_offer(burst_diff, kDscpDifferentiated, now);
      }
      hop.link->inject_fluid_burst(burst_dflt + burst_diff);
    }
    delivered_ += burst_dflt + burst_diff;
    dropped_ += burst_in - (burst_dflt + burst_diff);
  }

  // Offered load this step: the segment's open-loop rate scaled by the
  // aggregate's congestion response.
  double bytes_dflt = rate_dflt * resp_dflt_ / 8.0 * dt;
  double bytes_diff = rate_diff * resp_diff_ / 8.0 * dt;
  const double offered_dflt = bytes_dflt;
  const double offered_diff = bytes_diff;
  offered_ += offered_dflt + offered_diff;
  double loss_dflt = 0.0;
  double loss_diff = 0.0;

  for (Hop& hop : hops_) {
    QueueDisc& disc = hop.link->disc();
    // Qdisc coupling: token buckets drain tokens, RED applies its
    // early-drop probability; plain FIFOs are transparent here and
    // compete only through the link capacity below.
    const double adm_dflt =
        bytes_dflt > 0.0
            ? disc.fluid_offer(bytes_dflt, kDscpDefault, now)
            : 0.0;
    const double adm_diff =
        bytes_diff > 0.0
            ? disc.fluid_offer(bytes_diff, kDscpDifferentiated, now)
            : 0.0;
    loss_dflt += bytes_dflt - adm_dflt;
    loss_diff += bytes_diff - adm_diff;

    // Link-capacity coupling: a leaky bucket served by the capacity left
    // once other fluid sources' shares are taken out (the two paths'
    // aggregates share the common and access links).
    const double other =
        std::max(0.0, hop.link->fluid_load() - hop.contribution);
    const double cap_rate =
        std::max(0.0, hop.link->bandwidth() * kLinkShare - other);
    const double cap_bytes = cap_rate / 8.0 * dt;
    hop.q_dflt += adm_dflt;
    hop.q_diff += adm_diff;
    double total = hop.q_dflt + hop.q_diff;
    const double out = std::min(total, cap_bytes);
    const double share_dflt = total > 0.0 ? hop.q_dflt / total : 0.5;
    const double out_dflt = out * share_dflt;
    const double out_diff = out - out_dflt;
    hop.q_dflt -= out_dflt;
    hop.q_diff -= out_diff;
    // Overflow past ~100 ms of standing queue is loss, attributed
    // proportionally to what is queued.
    total = hop.q_dflt + hop.q_diff;
    const double q_cap = hop.link->bandwidth() * kQueueSeconds / 8.0;
    if (total > q_cap) {
      const double over = total - q_cap;
      const double over_dflt = over * (total > 0.0 ? hop.q_dflt / total : 0.5);
      hop.q_dflt -= over_dflt;
      hop.q_diff -= over - over_dflt;
      loss_dflt += over_dflt;
      loss_diff += over - over_dflt;
    }
    // Occupancy feedback for occupancy-driven discs (RED's EWMA).
    disc.fluid_set_backlog(llround_nonneg(hop.q_dflt + hop.q_diff));

    // The realized throughput is what packet traffic must share the link
    // with until the next step.
    const double contribution = (out_dflt + out_diff) * 8.0 / dt;
    hop.link->add_fluid_load(contribution - hop.contribution);
    hop.contribution = contribution;

    bytes_dflt = out_dflt;
    bytes_diff = out_diff;
  }

  const double delivered = bytes_dflt + bytes_diff;
  delivered_ += delivered;
  dropped_ += loss_dflt + loss_diff;
  ++steps_;
  rate_obs_.observe(delivered * 8.0 / dt / 1e6);

  // TCP-like response per class: multiplicative decrease proportional to
  // the step's loss fraction, linear recovery toward the open-loop rate
  // otherwise.
  const auto respond = [dt](double& resp, double offered, double loss) {
    const double frac = offered > 1e-9 ? loss / offered : 0.0;
    if (frac > 1e-4) {
      resp = std::max(kMinResponse, resp * std::max(0.5, 1.0 - frac));
    } else {
      resp = std::min(1.0, resp + dt / kRampSeconds);
    }
  };
  respond(resp_dflt_, offered_dflt, loss_dflt);
  respond(resp_diff_, offered_diff, loss_diff);
  response_obs_.observe(resp_dflt_);
  if (rate_diff > 0.0) response_obs_.observe(resp_diff_);

  ++index_;
  if (index_ >= seg_.segments()) {
    detach();
    return;
  }
  sim_.reschedule_current(seg_.step);
}

}  // namespace wehey::netsim
