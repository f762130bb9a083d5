// Building a network by hand with the netsim/transport primitives — the
// lowest-level public API. Constructs a three-link chain with an
// Appendix-C.1 rate-limiter in the middle, runs a throttled TCP flow next
// to an unthrottled one, and prints what each experienced.
//
//   server --10ms-- [ 40 Mbps ] --2ms-- [ rate-limiter ] --5ms-- client
//
//   ./custom_topology [throttle_mbps]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "netsim/link.hpp"
#include "netsim/queue.hpp"
#include "netsim/simulator.hpp"
#include "experiments/network.hpp"
#include "transport/tcp.hpp"

using namespace wehey;
using namespace wehey::netsim;
using namespace wehey::transport;

int main(int argc, char** argv) {
  const double throttle_mbps = argc > 1 ? std::atof(argv[1]) : 3.0;

  Simulator sim;
  PacketIdSource ids;

  // Client side: a demux delivering to per-flow receivers.
  Demux client;

  // The chain, built back-to-front.
  auto lp = experiments::LimiterParams{};  // sized by hand below
  (void)lp;
  const Rate throttle = mbps(throttle_mbps);
  auto limiter = std::make_unique<RateLimiterDisc>(
      std::make_unique<FifoDisc>(256 * 1024),
      std::make_unique<TbfDisc>(throttle,
                                static_cast<std::int64_t>(
                                    bytes_in(throttle, milliseconds(40))),
                                static_cast<std::int64_t>(
                                    bytes_in(throttle, milliseconds(20))),
                                0));
  Link last_mile(sim, mbps(40), milliseconds(5), std::move(limiter),
                 &client);
  Link backbone(sim, mbps(40), milliseconds(2),
                std::make_unique<FifoDisc>(512 * 1024), &last_mile);
  Link access(sim, mbps(40), milliseconds(10),
              std::make_unique<FifoDisc>(512 * 1024), &backbone);

  // Two flows: flow 1 is differentiated (dscp=1 -> the TBF class), flow 2
  // rides the default class.
  TcpConfig cfg;
  Pipe ack1(sim, milliseconds(17));
  Pipe ack2(sim, milliseconds(17));
  TcpSender snd1(sim, ids, cfg, 1, kDscpDifferentiated, &access);
  TcpSender snd2(sim, ids, cfg, 2, kDscpDefault, &access);
  TcpReceiver rcv1(sim, ids, 1, &ack1);
  TcpReceiver rcv2(sim, ids, 2, &ack2);
  ack1.set_next(&snd1);
  ack2.set_next(&snd2);
  client.add_route(1, &rcv1);
  client.add_route(2, &rcv2);

  snd1.supply(20'000'000);
  snd2.supply(20'000'000);
  sim.run(seconds(15));

  auto report = [&](const char* name, const TcpSender& snd,
                    const TcpReceiver& rcv) {
    std::printf("%s: %.2f Mbps, retx rate %.3f, srtt %.1f ms, "
                "%llu timeouts\n",
                name,
                rcv.received_bytes() * 8.0 / to_seconds(sim.now()) / 1e6,
                snd.measurement().loss_rate(),
                to_milliseconds(snd.srtt()),
                static_cast<unsigned long long>(snd.timeouts()));
  };
  std::printf("rate-limiter at %.1f Mbps on the last-mile link:\n",
              throttle_mbps);
  report("  differentiated flow", snd1, rcv1);
  report("  default-class flow ", snd2, rcv2);
  const auto& disc =
      static_cast<const RateLimiterDisc&>(last_mile.disc());
  std::printf("  limiter drops: %llu\n",
              static_cast<unsigned long long>(disc.throttled_drops()));
  return 0;
}
