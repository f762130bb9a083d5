#include "experiments/network.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "obs/recorder.hpp"
#include "stats/descriptive.hpp"

namespace wehey::experiments {

using netsim::Demux;
using netsim::FifoDisc;
using netsim::Link;
using netsim::Pipe;
using netsim::RateLimiterDisc;
using netsim::TbfDisc;

namespace {

std::unique_ptr<netsim::QueueDisc> make_disc(Placement placement,
                                             bool this_link_limited,
                                             const LimiterParams& lp,
                                             std::int64_t fifo_limit) {
  auto fifo = std::make_unique<FifoDisc>(fifo_limit);
  if (!this_link_limited) return fifo;
  WEHEY_EXPECTS(lp.rate > 0 && lp.burst > 0);
  if (placement == Placement::PerFlowCommonLink) {
    return std::make_unique<netsim::PerFlowRateLimiterDisc>(
        std::move(fifo), lp.rate, lp.burst, lp.limit);
  }
  auto tbf = std::make_unique<TbfDisc>(lp.rate, lp.burst, lp.limit);
  return std::make_unique<RateLimiterDisc>(std::move(fifo), std::move(tbf));
}

topology::Hop hop(std::string ip, topology::Asn asn) {
  topology::Hop h;
  h.reported_ips.push_back(std::move(ip));
  h.asn = asn;
  return h;
}

std::int64_t default_fifo_limit(Rate bw) {
  // ~50 ms of buffering, at least 64 KB — a typical router egress buffer.
  return std::max<std::int64_t>(
      64 * 1024, static_cast<std::int64_t>(bytes_in(bw, milliseconds(50))));
}

}  // namespace

LimiterParams make_limiter(Rate rate, Time rtt, double queue_burst_factor) {
  LimiterParams lp;
  lp.rate = rate;
  // Floors keep the bucket meaningful at scaled-down rates: a burst of a
  // handful of MTUs and at least a few packets of backlog, as real tc-tbf
  // deployments configure (Appendix C.1).
  lp.burst = std::max<std::int64_t>(
      6 * 1500, static_cast<std::int64_t>(bytes_in(rate, rtt)));
  lp.limit = std::max<std::int64_t>(
      3 * 1500, static_cast<std::int64_t>(static_cast<double>(lp.burst) *
                                          queue_burst_factor));
  return lp;
}

// ------------------------------------------------------------ inner types

struct FigureOneNetwork::TcpReplay {
  int path = 1;
  Time start = 0;
  bool aborted = false;
  Time aborted_at = 0;
  // One entry per parallel connection of the replayed session.
  std::vector<std::unique_ptr<Pipe>> ack_pipes;
  std::vector<std::unique_ptr<transport::TcpSender>> senders;
  std::vector<std::unique_ptr<transport::TcpReceiver>> receivers;
};

struct FigureOneNetwork::UdpReplay {
  int path = 1;
  bool aborted = false;
  Time aborted_at = 0;
  std::unique_ptr<transport::UdpReplayReceiver> receiver;
  std::unique_ptr<transport::UdpReplaySender> sender;
};

struct FigureOneNetwork::QuicReplay {
  int path = 1;
  std::unique_ptr<Pipe> ack_pipe;
  std::unique_ptr<transport::QuicSender> sender;
  std::unique_ptr<transport::QuicReceiver> receiver;
};

struct FigureOneNetwork::BackgroundFlowRt {
  std::unique_ptr<Pipe> ack_pipe;
  std::unique_ptr<transport::TcpSender> sender;
  std::unique_ptr<transport::TcpReceiver> receiver;
};

// ------------------------------------------------------------ network

FigureOneNetwork::FigureOneNetwork(netsim::Simulator& sim,
                                   const NetworkParams& params, Rng& rng)
    : sim_(sim), params_(params) {
  WEHEY_EXPECTS(params.rtt1 > 2 * params.common_delay);
  WEHEY_EXPECTS(params.rtt2 > 2 * params.common_delay);

  client_ = std::make_unique<Demux>();

  const bool limit_common = params.placement == Placement::CommonLink ||
                            params.placement == Placement::PerFlowCommonLink;
  const bool limit_nc = params.placement == Placement::NonCommonLinks;
  const auto fifo_limit = [&params](Rate bw) {
    return params.fifo_limit_bytes > 0 ? params.fifo_limit_bytes
                                       : default_fifo_limit(bw);
  };

  netsim::PacketSink* last_hop = client_.get();
  if (params.access_rate > 0) {
    access_ = std::make_unique<Link>(
        sim_, params.access_rate, milliseconds(1),
        std::make_unique<FifoDisc>(default_fifo_limit(params.access_rate)),
        client_.get());
    last_hop = access_.get();
    // Time-varying capacity: a lognormal multiplicative draw around the
    // nominal rate every update interval (cellular last-hop behaviour).
    Rng access_rng = rng.split();
    const Rate nominal = params.access_rate;
    const double sigma = params.access_jitter_sigma;
    const Time step = params.access_update_interval;
    auto* link = access_.get();
    // A self-rescheduling capacity update, owning its own RNG stream; the
    // scheduled closures hold shared ownership so the updater outlives
    // any pending event.
    struct Updater : std::enable_shared_from_this<Updater> {
      netsim::Simulator& sim;
      Link* link;
      Rate nominal;
      double sigma;
      Time step;
      Rng rng;
      Updater(netsim::Simulator& s, Link* l, Rate n, double sg, Time st,
              Rng r)
          : sim(s), link(l), nominal(n), sigma(sg), step(st), rng(r) {}
      void fire() {
        const double factor =
            std::clamp(rng.lognormal(0.0, sigma), 0.35, 3.0);
        link->set_bandwidth(nominal * factor);
        // Re-arm the executing closure in place: the retained capture keeps
        // the shared ownership alive with no per-tick copy.
        sim.reschedule_current(step);
      }
    };
    auto updater = std::make_shared<Updater>(sim_, link, nominal, sigma,
                                             step, access_rng.split());
    sim_.schedule(step, [updater] { updater->fire(); });
  }

  auto common_disc = params.common_disc_factory
                         ? params.common_disc_factory()
                         : make_disc(params.placement, limit_common,
                                     params.limiter, fifo_limit(params.bw_c));
  common_ = std::make_unique<Link>(sim_, params.bw_c, params.common_delay,
                                   std::move(common_disc), last_hop);

  // The forward one-way delay of path i is rtt_i / 2; l_c contributes
  // common_delay of it, the non-common link the rest.
  const Time d1 = params.rtt1 / 2 - params.common_delay;
  const Time d2 = params.rtt2 / 2 - params.common_delay;
  nc1_ = std::make_unique<Link>(sim_, params.bw_nc1, d1,
                                make_disc(params.placement, limit_nc,
                                          params.limiter,
                                          fifo_limit(params.bw_nc1)),
                                common_.get());
  nc2_ = std::make_unique<Link>(sim_, params.bw_nc2, d2,
                                make_disc(params.placement, limit_nc,
                                          params.limiter,
                                          fifo_limit(params.bw_nc2)),
                                common_.get());

  // Per-link utilization histograms ("link.<name>.utilization").
  common_->set_obs_label("common");
  nc1_->set_obs_label("nc1");
  nc2_->set_obs_label("nc2");
  if (access_) access_->set_obs_label("access");
}

FigureOneNetwork::~FigureOneNetwork() = default;

netsim::PacketSink* FigureOneNetwork::path_entry(int path_index) {
  WEHEY_EXPECTS(path_index == 1 || path_index == 2);
  return path_index == 1 ? static_cast<netsim::PacketSink*>(nc1_.get())
                         : static_cast<netsim::PacketSink*>(nc2_.get());
}

Time FigureOneNetwork::reverse_delay(int path_index) const {
  return (path_index == 1 ? params_.rtt1 : params_.rtt2) / 2;
}

void FigureOneNetwork::attach_background(
    int path_index, const std::vector<trace::BackgroundFlow>& flows,
    const transport::TcpConfig& tcp) {
  netsim::PacketSink* entry = path_entry(path_index);
  // Each flow's bytes become available at its start: one series over the
  // flows (start-ordered, as generate_background emits them).
  std::vector<Time> starts;
  std::vector<std::pair<transport::TcpSender*, std::int64_t>> supplies;
  for (const auto& f : flows) {
    auto rt = std::make_unique<BackgroundFlowRt>();
    const netsim::FlowId flow = next_flow_++;
    const std::uint8_t dscp = f.differentiated
                                  ? netsim::kDscpDifferentiated
                                  : netsim::kDscpDefault;
    rt->ack_pipe = std::make_unique<Pipe>(sim_, reverse_delay(path_index));
    rt->sender = std::make_unique<transport::TcpSender>(
        sim_, ids_, tcp, flow, dscp, entry);
    rt->receiver = std::make_unique<transport::TcpReceiver>(
        sim_, ids_, tcp, flow, rt->ack_pipe.get());
    rt->ack_pipe->set_next(rt->sender.get());
    client_->add_route(flow, rt->receiver.get());

    starts.push_back(f.start);
    supplies.emplace_back(rt->sender.get(), f.bytes);
    background_.push_back(std::move(rt));
  }
  sim_.schedule_series(std::move(starts),
                       [supplies = std::move(supplies)](std::size_t i) {
                         supplies[i].first->supply(supplies[i].second);
                       });
}

void FigureOneNetwork::attach_fluid_background(
    int path_index, const trace::FluidProfile& profile) {
  WEHEY_EXPECTS(path_index == 1 || path_index == 2);
  if (profile.empty()) return;
  netsim::FluidSegments seg;
  seg.step = profile.step;
  seg.dflt = profile.dflt;
  seg.diff = profile.diff;
  seg.burst_dflt = profile.burst_dflt;
  seg.burst_diff = profile.burst_diff;
  std::vector<Link*> path;
  path.push_back(path_index == 1 ? nc1_.get() : nc2_.get());
  path.push_back(common_.get());
  if (access_) path.push_back(access_.get());
  auto src = std::make_unique<netsim::FluidSource>(sim_, std::move(seg),
                                                   std::move(path));
  // Stagger the two paths' step grids by half a step: they share the
  // common and access links, and in-phase stepping would drain tokens and
  // fire bursts at identical instants on both.
  src->start(path_index == 1 ? 0 : profile.step / 2);
  fluid_.push_back(std::move(src));
}

ReplayCut FigureOneNetwork::take_next_cut() {
  const ReplayCut cut = next_cut_;
  next_cut_ = ReplayCut{};
  return cut;
}

void FigureOneNetwork::launch_next_storm(Time replay_start) {
  const ReplayStorm storm = next_storm_;
  next_storm_ = ReplayStorm{};
  if (!storm.active()) return;
  // The livelock: a timer that does nothing but rearm itself. The chain
  // floods the event heap at `interval` period forever — by design there
  // is no termination condition here; only the supervisor's per-trial
  // budget (src/parallel/supervisor.hpp) ends such a run.
  netsim::Simulator* sim = &sim_;
  const Time interval = storm.interval;
  sim_.schedule_at(replay_start + storm.after,
                   [sim, interval] { sim->reschedule_current(interval); });
}

int FigureOneNetwork::start_tcp_replay(int path_index,
                                       const trace::AppTrace& t, Time start,
                                       const transport::TcpConfig& tcp,
                                       int connections,
                                       netsim::FlowId policer_key) {
  WEHEY_EXPECTS(t.transport == trace::Transport::Tcp);
  WEHEY_EXPECTS(connections >= 1);
  const ReplayCut cut = take_next_cut();
  launch_next_storm(start);
  auto rt = std::make_unique<TcpReplay>();
  rt->path = path_index;
  rt->start = start;
  const std::uint8_t dscp = t.carries_sni ? netsim::kDscpDifferentiated
                                          : netsim::kDscpDefault;
  for (int c = 0; c < connections; ++c) {
    const netsim::FlowId flow = next_flow_++;
    auto pipe = std::make_unique<Pipe>(sim_, reverse_delay(path_index));
    auto sender = std::make_unique<transport::TcpSender>(
        sim_, ids_, tcp, flow, dscp, path_entry(path_index));
    if (policer_key != 0) sender->set_policer_key(policer_key);
    auto receiver = std::make_unique<transport::TcpReceiver>(
        sim_, ids_, tcp, flow, pipe.get());
    pipe->set_next(sender.get());
    client_->add_route(flow, receiver.get());
    rt->ack_pipes.push_back(std::move(pipe));
    rt->senders.push_back(std::move(sender));
    rt->receivers.push_back(std::move(receiver));
  }

  // The trace is the byte-availability schedule: each recorded packet's
  // payload becomes available at its recorded offset; TCP turns it into
  // wire traffic at its own pace. Packets are striped across the
  // session's connections, like a streaming client's parallel range
  // requests. An armed ReplayCut stops the supply mid-stream: the server
  // process died, nothing after the cut is ever offered to the network.
  std::vector<Time> times;
  std::vector<std::uint32_t> sizes;
  std::int64_t supplied = 0;
  for (const auto& tp : t.packets) {
    if (cut.active()) {
      const bool past_time = cut.after >= 0 && tp.offset > cut.after;
      const bool past_bytes =
          cut.after_bytes >= 0 && supplied + tp.size > cut.after_bytes;
      if (past_time || past_bytes) {
        rt->aborted = true;
        rt->aborted_at = start + tp.offset;
        break;
      }
    }
    supplied += tp.size;
    times.push_back(start + tp.offset);
    sizes.push_back(tp.size);
  }
  sim_.schedule_series(std::move(times),
                       [replay = rt.get(),
                        sizes = std::move(sizes)](std::size_t i) {
                         const auto& senders = replay->senders;
                         senders[i % senders.size()]->supply(sizes[i]);
                       });
  tcp_replays_.push_back(std::move(rt));
  // TCP ids are positive, UDP ids negative, so one report() entry point
  // can dispatch.
  return static_cast<int>(tcp_replays_.size());
}

int FigureOneNetwork::start_udp_replay(int path_index,
                                       const trace::AppTrace& t, Time start,
                                       netsim::FlowId policer_key) {
  WEHEY_EXPECTS(t.transport == trace::Transport::Udp);
  const ReplayCut cut = take_next_cut();
  launch_next_storm(start);
  auto rt = std::make_unique<UdpReplay>();
  rt->path = path_index;
  const netsim::FlowId flow = next_flow_++;
  const std::uint8_t dscp = t.carries_sni ? netsim::kDscpDifferentiated
                                          : netsim::kDscpDefault;
  rt->receiver = std::make_unique<transport::UdpReplayReceiver>(sim_);
  client_->add_route(flow, rt->receiver.get());
  transport::UdpConfig ucfg;
  // An armed ReplayCut truncates the schedule up front: a UDP replay is
  // open-loop, so the dead server simply never transmits the rest.
  const trace::AppTrace* schedule = &t;
  trace::AppTrace cut_trace;
  if (cut.active()) {
    const Time limit = cut.after >= 0 ? cut.after : t.duration();
    cut_trace = trace::cut(t, limit, cut.after_bytes);
    if (cut_trace.packets.size() < t.packets.size()) {
      rt->aborted = true;
      rt->aborted_at = start + (cut_trace.packets.empty()
                                    ? 0
                                    : cut_trace.packets.back().offset);
    }
    schedule = &cut_trace;
  }
  rt->sender = std::make_unique<transport::UdpReplaySender>(
      sim_, ids_, ucfg, flow, dscp, path_entry(path_index), *schedule, start,
      policer_key);
  udp_replays_.push_back(std::move(rt));
  return -static_cast<int>(udp_replays_.size());
}

void FigureOneNetwork::run(Time until, Time grace) {
  sim_.run(until + grace);
}

PathReport FigureOneNetwork::report(int id, Time start, Time duration) {
  PathReport rep;
  if (id > 1'000'000) {
    auto& rt = *quic_replays_.at(static_cast<std::size_t>(id - 1'000'001));
    rep.meas = rt.sender->measurement();
    rep.meas.deliveries = rt.receiver->deliveries();
  } else if (id > 0) {
    auto& rt = *tcp_replays_.at(static_cast<std::size_t>(id - 1));
    rep.aborted = rt.aborted;
    rep.aborted_at = rt.aborted_at;
    // Merge the per-connection measurements into one path measurement
    // (the server measures the whole replayed session). Each connection's
    // series is already in time order, so a merge keeps the whole sorted.
    const auto merge = [](auto& into, const auto& from, auto less) {
      const auto mid = into.insert(into.end(), from.begin(), from.end());
      std::inplace_merge(into.begin(), mid, into.end(), less);
    };
    const auto earlier = [](const netsim::Delivery& a,
                            const netsim::Delivery& b) { return a.at < b.at; };
    for (std::size_t c = 0; c < rt.senders.size(); ++c) {
      const auto& m = rt.senders[c]->measurement();
      merge(rep.meas.tx_times, m.tx_times, std::less<>{});
      merge(rep.meas.loss_times, m.loss_times, std::less<>{});
      rep.meas.rtt_ms.insert(rep.meas.rtt_ms.end(), m.rtt_ms.begin(),
                             m.rtt_ms.end());
      merge(rep.meas.deliveries, rt.receivers[c]->deliveries(), earlier);
    }
  } else {
    auto& rt = *udp_replays_.at(static_cast<std::size_t>(-id - 1));
    rep.aborted = rt.aborted;
    rep.aborted_at = rt.aborted_at;
    rt.receiver->finalize(rt.sender->packets_scheduled(), start + duration);
    rep.meas = transport::udp_measurement(*rt.sender, *rt.receiver);
  }
  rep.meas.start = start;
  rep.meas.end = start + duration;
  rep.retx_rate = rep.meas.loss_rate();
  if (!rep.meas.rtt_ms.empty()) {
    // RTT samples (TCP, QUIC) or one-way-delay samples (UDP): queueing
    // delay is the delay above the minimum.
    rep.avg_queuing_delay_ms =
        stats::mean(rep.meas.rtt_ms) - stats::min(rep.meas.rtt_ms);
  }
  rep.avg_throughput_bps = rep.meas.average_throughput();
  return rep;
}

int FigureOneNetwork::start_quic_replay(int path_index,
                                        const trace::AppTrace& t,
                                        Time start,
                                        const transport::QuicConfig& quic) {
  auto rt = std::make_unique<QuicReplay>();
  rt->path = path_index;
  const netsim::FlowId flow = next_flow_++;
  const std::uint8_t dscp = t.carries_sni ? netsim::kDscpDifferentiated
                                          : netsim::kDscpDefault;
  rt->ack_pipe = std::make_unique<Pipe>(sim_, reverse_delay(path_index));
  rt->sender = std::make_unique<transport::QuicSender>(
      sim_, ids_, quic, flow, dscp, path_entry(path_index));
  rt->receiver = std::make_unique<transport::QuicReceiver>(
      sim_, ids_, quic, flow, rt->ack_pipe.get());
  rt->ack_pipe->set_next(rt->sender.get());
  client_->add_route(flow, rt->receiver.get());
  std::vector<Time> times;
  std::vector<std::uint32_t> sizes;
  for (const auto& tp : t.packets) {
    times.push_back(start + tp.offset);
    sizes.push_back(tp.size);
  }
  sim_.schedule_series(std::move(times),
                       [sender = rt->sender.get(),
                        sizes = std::move(sizes)](std::size_t i) {
                         sender->supply(sizes[i]);
                       });
  quic_replays_.push_back(std::move(rt));
  // QUIC ids live above 1'000'000 (TCP positive, UDP negative).
  return 1'000'000 + static_cast<int>(quic_replays_.size());
}

topology::TracerouteRecord FigureOneNetwork::traceroute(
    int path_index) const {
  WEHEY_EXPECTS(path_index == 1 || path_index == 2);
  topology::TracerouteRecord rec;
  rec.server = path_index == 1 ? "s1" : "s2";
  rec.dst_ip = "100.0.1.77";  // the client
  rec.dst_asn = kClientAsn;
  // Server-side hop, then the non-common transit, then the ISP hops where
  // the two paths converge (the downstream end of l_c), then the client.
  rec.hops.push_back(
      hop(path_index == 1 ? "10.1.0.254" : "10.2.0.254",
          path_index == 1 ? 65001 : 65002));
  if (route_churn_ && path_index == 1) {
    // Inter-domain churn rerouted path 1 through path 2's transit: the
    // two paths now share a node outside the client's ISP, so the
    // topology is no longer suitable (step 4 of the replay flow discards
    // it and updates the topology database).
    rec.hops.push_back(hop("172.16.2.1", 65102));
  } else {
    rec.hops.push_back(hop(path_index == 1 ? "172.16.1.1" : "172.16.2.1",
                           path_index == 1 ? 65101 : 65102));
  }
  rec.hops.push_back(hop(path_index == 1 ? "100.0.254.1" : "100.0.254.2",
                         kClientAsn));  // per-path ISP border
  rec.hops.push_back(hop("100.0.1.1", kClientAsn));  // convergence router
  rec.hops.push_back(hop(rec.dst_ip, kClientAsn));
  return rec;
}

topology::TracerouteRecord FigureOneNetwork::standby_traceroute(
    int index) const {
  WEHEY_EXPECTS(index >= 3);
  const std::string n = std::to_string(index);
  topology::TracerouteRecord rec;
  rec.server = "s" + n;
  rec.dst_ip = "100.0.1.77";
  rec.dst_asn = kClientAsn;
  rec.hops.push_back(hop("10." + n + ".0.254", 65000 + index));
  rec.hops.push_back(hop("172.16." + n + ".1", 65100 + index));
  rec.hops.push_back(hop("100.0.254." + n, kClientAsn));
  rec.hops.push_back(hop("100.0.1.1", kClientAsn));  // convergence router
  rec.hops.push_back(hop(rec.dst_ip, kClientAsn));
  return rec;
}

void FigureOneNetwork::snapshot_metrics() const {
  obs::Recorder* rec = obs::Recorder::current();
  if (rec == nullptr || !rec->metrics_on()) return;
  auto& m = rec->metrics();
  const Time now = sim_.now();
  const auto link = [&m, now](const char* name, const netsim::Link& l) {
    const std::string p = std::string("net.") + name;
    m.counter(p + ".delivered_packets").inc(l.delivered_packets());
    m.counter(p + ".delivered_bytes")
        .inc(static_cast<std::uint64_t>(l.delivered_bytes()));
    m.counter(p + ".drops").inc(l.disc().drop_count());
    m.counter(p + ".busy_us")
        .inc(static_cast<std::uint64_t>(l.busy_time() / kMicrosecond));
    if (now > 0) {
      m.gauge(p + ".utilization")
          .set(static_cast<double>(l.busy_time()) /
               static_cast<double>(now));
    }
  };
  link("common", *common_);
  link("nc1", *nc1_);
  link("nc2", *nc2_);
  if (access_) link("access", *access_);
  m.counter("net.limiter_drops").inc(limiter_drops());

  // Per-flow distributions: one observation per TCP sender (replays and
  // background traffic). Iteration order is construction order, and the
  // values are pure functions of the sim, so the bins are byte-identical
  // across WEHEY_THREADS.
  auto& flow_srtt = m.histogram("tcp.flow_srtt_ms", 0.0, 400.0, 80);
  auto& flow_retx = m.histogram("tcp.flow_retx", 0.0, 200.0, 50);
  const auto flow = [&](const transport::TcpSender& s) {
    flow_srtt.observe(to_milliseconds(s.srtt()));
    flow_retx.observe(static_cast<double>(s.retransmissions()));
    m.counter("tcp.flows").inc();
    m.counter("tcp.flow_timeouts").inc(s.timeouts());
  };
  for (const auto& r : tcp_replays_) {
    for (const auto& s : r->senders) flow(*s);
  }
  for (const auto& b : background_) flow(*b->sender);

  // Fluid-mode background: end-of-phase aggregate totals. Absent (not
  // zero) in packet-mode runs so pre-fluid reports are unchanged.
  if (!fluid_.empty()) {
    std::uint64_t steps = 0, offered = 0, delivered = 0, dropped = 0;
    for (const auto& f : fluid_) {
      steps += f->steps();
      offered += static_cast<std::uint64_t>(f->offered_bytes());
      delivered += static_cast<std::uint64_t>(f->delivered_bytes());
      dropped += static_cast<std::uint64_t>(f->dropped_bytes());
    }
    m.counter("fluid.sources").inc(fluid_.size());
    m.counter("fluid.steps").inc(steps);
    m.counter("fluid.offered_bytes").inc(offered);
    m.counter("fluid.delivered_bytes").inc(delivered);
    m.counter("fluid.dropped_bytes").inc(dropped);
  }
}

std::uint64_t FigureOneNetwork::limiter_drops() const {
  std::uint64_t drops = 0;
  auto add = [&drops](const netsim::QueueDisc& disc) {
    if (const auto* rl = dynamic_cast<const RateLimiterDisc*>(&disc)) {
      drops += rl->throttled_drops();
    } else if (const auto* pf =
                   dynamic_cast<const netsim::PerFlowRateLimiterDisc*>(
                       &disc)) {
      drops += pf->throttled_drops();
    }
  };
  add(common_->disc());
  add(nc1_->disc());
  add(nc2_->disc());
  return drops;
}

}  // namespace wehey::experiments
