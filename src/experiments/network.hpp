// Assembly of the Figure-1 evaluation topology for one replay phase:
//
//   server s1 --- l1 (non-common) ---+
//                                     +--- l_c (common) --- client
//   server s2 --- l2 (non-common) ---+
//
// Forward links are bandwidth/delay Links with either a plain FIFO or the
// Appendix-C.1 rate-limiter (classifier + FIFO + TBF, round-robin) as
// their queueing discipline. Reverse (ACK) paths are ideal fixed-delay
// pipes — differentiation in all of the paper's scenarios acts on the
// downstream direction.
//
// The network also hosts the background traffic (one CAIDA-like workload
// per path, replayed by real TCP senders) so that the rate-limiter and
// the links see realistic competing traffic.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "netsim/fluid.hpp"
#include "netsim/link.hpp"
#include "netsim/measure.hpp"
#include "netsim/packet.hpp"
#include "netsim/queue.hpp"
#include "netsim/simulator.hpp"
#include "topology/traceroute.hpp"
#include "trace/background.hpp"
#include "trace/trace.hpp"
#include "transport/tcp.hpp"
#include "transport/quic.hpp"
#include "transport/udp.hpp"

namespace wehey::experiments {

enum class Placement {
  None,               ///< no rate-limiter anywhere
  CommonLink,         ///< one collective rate-limiter on l_c (FN scenarios)
  NonCommonLinks,     ///< two identical rate-limiters on l1 and l2 (FP)
  PerFlowCommonLink,  ///< per-flow throttling on l_c: one token bucket per
                      ///< flow key (§3.2 limitation / §7 countermeasure)
};

struct LimiterParams {
  Rate rate = 0;           ///< token replenish rate (bits/sec)
  std::int64_t burst = 0;  ///< bucket size in bytes
  std::int64_t limit = 0;  ///< backlog allowed awaiting tokens (bytes)
};

/// Custom queueing-discipline factory (e.g. the delayed fixed-rate
/// throttler modelling ISP5's behaviour, §5).
using DiscFactory = std::function<std::unique_ptr<netsim::QueueDisc>()>;

struct NetworkParams {
  Rate bw_nc1 = mbps(50);  ///< l1 bandwidth
  Rate bw_nc2 = mbps(50);  ///< l2 bandwidth
  Rate bw_c = mbps(100);   ///< l_c bandwidth
  Time rtt1 = milliseconds(35);
  Time rtt2 = milliseconds(35);
  Time common_delay = milliseconds(2);  ///< l_c propagation share
  Placement placement = Placement::None;
  LimiterParams limiter;              ///< used per placement
  std::int64_t fifo_limit_bytes = 0;  ///< 0: sized from BDP
  /// Overrides the common link's disc when set (placement is ignored for
  /// the common link in that case).
  DiscFactory common_disc_factory;

  /// Optional last-mile access link between l_c and the client, with
  /// time-varying capacity — the source of the "normal throughput
  /// variation" T_diff captures on cellular networks (§5). 0 disables.
  Rate access_rate = 0;
  double access_jitter_sigma = 0.25;  ///< lognormal sigma of capacity
  Time access_update_interval = seconds(2);
};

/// One path's replay measurement plus the per-replay statistics the
/// evaluation reports (Figures 5 and 7).
struct PathReport {
  netsim::ReplayMeasurement meas;
  double retx_rate = 0.0;             ///< TCP retransmission rate
  double avg_queuing_delay_ms = 0.0;  ///< avg RTT - min RTT (Fig. 5b)
  double avg_throughput_bps = 0.0;
  /// Fault injection: the replay server died mid-stream (the measurement
  /// covers only the part before `aborted_at`). Consumers must treat the
  /// replay as failed rather than analyze the stump.
  bool aborted = false;
  Time aborted_at = 0;  ///< absolute simulation time of the abort
};

/// A mid-stream replay abort (fault injection): the server stops supplying
/// bytes `after` into the replay, or once `after_bytes` cumulative payload
/// bytes have been offered (>= 0 wins over `after`). Inactive by default.
struct ReplayCut {
  Time after = -1;
  std::int64_t after_bytes = -1;
  bool active() const { return after >= 0 || after_bytes >= 0; }
};

/// A retransmit livelock (fault injection, FaultKind::EventStorm): the
/// replay's sender wedges `after` into the replay and from then on fires
/// a timer every `interval` without ever advancing the transfer. The
/// chain never terminates on its own — ending the run is the job of the
/// supervisor's per-trial budget. Inactive by default.
struct ReplayStorm {
  Time after = -1;
  Time interval = 0;
  bool active() const { return after >= 0 && interval > 0; }
};

class FigureOneNetwork {
 public:
  /// `rng` is split once, for the access link's capacity jitter (when
  /// params.access_rate > 0), and not kept.
  FigureOneNetwork(netsim::Simulator& sim, const NetworkParams& params,
                   Rng& rng);
  ~FigureOneNetwork();
  FigureOneNetwork(const FigureOneNetwork&) = delete;
  FigureOneNetwork& operator=(const FigureOneNetwork&) = delete;

  /// Attach a CAIDA-like background workload whose flows enter through
  /// path `path_index` (1 or 2). Differentiated flows carry dscp=1.
  void attach_background(int path_index,
                         const std::vector<trace::BackgroundFlow>& flows,
                         const transport::TcpConfig& tcp = {});

  /// Fluid-mode alternative to attach_background: carry the same workload
  /// as a piecewise-constant rate aggregate on the path's link chain
  /// (netsim::FluidSource) — one simulator event per coarse step instead
  /// of per-packet traffic. Replays still see the load through reduced
  /// effective link capacity and the shared discs.
  void attach_fluid_background(int path_index,
                               const trace::FluidProfile& profile);

  /// Start a TCP trace replay on path `path_index` at time `start`; the
  /// byte schedule comes from `t` (§3.4: congestion control and pacing
  /// dictate wire timing). Like WeHe's replays of real streaming traces,
  /// the session may comprise several parallel connections
  /// (`connections`); the returned id aggregates their measurements.
  /// `policer_key` != 0 makes every packet of this replay carry that key,
  /// so a per-flow rate-limiter assigns it to that flow's bucket (the §7
  /// same-flow countermeasure gives both replays one key).
  int start_tcp_replay(int path_index, const trace::AppTrace& t, Time start,
                       const transport::TcpConfig& tcp, int connections = 1,
                       netsim::FlowId policer_key = 0);

  /// Start a UDP trace replay (the trace must already carry the desired
  /// timing discipline).
  int start_udp_replay(int path_index, const trace::AppTrace& t, Time start,
                       netsim::FlowId policer_key = 0);

  /// Start a QUIC trace replay (§7): the trace is the byte-availability
  /// schedule, like the TCP replay, but carried over the QUIC transport.
  int start_quic_replay(int path_index, const trace::AppTrace& t,
                        Time start, const transport::QuicConfig& quic = {});

  /// Run the simulation until `until` plus a drain grace period.
  void run(Time until, Time grace = seconds(3));

  /// Collect the report of replay `id`, clamped to [start, start+duration].
  PathReport report(int id, Time start, Time duration);

  /// Losses inside the TBF class of the rate-limiter(s).
  std::uint64_t limiter_drops() const;

  /// Direct access to the common link (tests, instrumentation).
  netsim::Link& common_link() { return *common_; }

  /// The end-of-replay traceroute of §3.4 step 3: an annotated record of
  /// the hops from server `path_index` to the client, as scamper would
  /// report them on this topology. With route churn enabled (see below),
  /// path 1 reports a detour through path 2's transit — the "topology no
  /// longer suitable" condition step 4 re-checks for.
  topology::TracerouteRecord traceroute(int path_index) const;

  /// Traceroute of a standby measurement server "s<index>" (index >= 3)
  /// that is deployed behind its own transit but converges with s1/s2 at
  /// the same in-ISP router. Standby servers carry no replay traffic; the
  /// daily TC ingest records them so the topology database holds more
  /// than one suitable pair per client prefix (§3.4's fallback pool).
  topology::TracerouteRecord standby_traceroute(int index) const;

  /// Simulate inter-domain route churn between replays: subsequent
  /// traceroutes of path 1 share a transit hop with path 2.
  void set_route_churn(bool churn) { route_churn_ = churn; }

  /// Snapshot the per-link delivery/drop totals (and the rate-limiter drop
  /// count) into the metrics registry of the recorder bound to this
  /// thread. No-op without a recorder; call once per finished phase so the
  /// numbers are end-of-run totals, not running sums.
  void snapshot_metrics() const;

  /// Arm a mid-stream abort for the NEXT start_*_replay call (fault
  /// injection). One-shot: consumed by that call, inactive again after.
  void set_next_replay_cut(const ReplayCut& cut) { next_cut_ = cut; }

  /// Arm a retransmit livelock for the NEXT start_*_replay call (fault
  /// injection). One-shot, like set_next_replay_cut.
  void set_next_replay_storm(const ReplayStorm& storm) {
    next_storm_ = storm;
  }

  /// The client ISP's ASN used in traceroute annotations.
  static constexpr topology::Asn kClientAsn = 64500;

  netsim::Simulator& sim() { return sim_; }

 private:
  struct TcpReplay;
  struct UdpReplay;
  struct QuicReplay;
  struct BackgroundFlowRt;

  netsim::PacketSink* path_entry(int path_index);
  Time reverse_delay(int path_index) const;

  netsim::Simulator& sim_;
  NetworkParams params_;
  netsim::PacketIdSource ids_;
  netsim::FlowId next_flow_ = 1;

  std::unique_ptr<netsim::Demux> client_;
  std::unique_ptr<netsim::Link> access_;  // optional last-mile link
  std::unique_ptr<netsim::Link> common_;
  std::unique_ptr<netsim::Link> nc1_;
  std::unique_ptr<netsim::Link> nc2_;

  /// Consume the one-shot cut armed for the next replay, if any.
  ReplayCut take_next_cut();

  /// Consume the one-shot storm armed for the next replay, if any, and —
  /// when active — schedule its self-perpetuating timer chain.
  void launch_next_storm(Time replay_start);

  std::vector<std::unique_ptr<TcpReplay>> tcp_replays_;
  std::vector<std::unique_ptr<UdpReplay>> udp_replays_;
  std::vector<std::unique_ptr<QuicReplay>> quic_replays_;
  std::vector<std::unique_ptr<BackgroundFlowRt>> background_;
  std::vector<std::unique_ptr<netsim::FluidSource>> fluid_;
  bool route_churn_ = false;
  ReplayCut next_cut_;
  ReplayStorm next_storm_;
};

/// Size a token bucket per Appendix C.1: burst = rate x RTT (bytes),
/// limit = queue_burst_factor x burst.
LimiterParams make_limiter(Rate rate, Time rtt, double queue_burst_factor);

}  // namespace wehey::experiments
