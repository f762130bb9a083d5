#include "topology/synthetic.hpp"

#include <algorithm>
#include <set>

#include "topology/construction.hpp"

namespace wehey::topology {
namespace {

constexpr Asn kIspAsnBase = 64500;
constexpr Asn kServerAsnBase = 65000;
constexpr Asn kTransitAsnBase = 65400;

constexpr std::size_t kNumServers = 8;
constexpr std::size_t kNumIsps = 10;
constexpr std::size_t kNumTransitChains = 4;  ///< fewer chains => more sharing
constexpr double kPIcmpBlocked = 0.28;  ///< ISP hides hops near client
constexpr double kPHopAlias = 0.04;  ///< per-hop extra reported IP
constexpr double kPSharedTransit = 0.42;  ///< server reuses another's chain
constexpr std::size_t kMinServersPerClient = 1;
constexpr std::size_t kMaxServersPerClient = 5;

std::string client_ip(std::size_t isp, std::size_t client) {
  // One /24 per (ISP, per-ISP client index): unique up to ~25k clients.
  const std::size_t within_isp = client / 10;  // clients round-robin ISPs
  return "100." + std::to_string(isp) + "." +
         std::to_string(within_isp % 250) + "." +
         std::to_string(10 + within_isp / 250);
}

Hop make_hop(std::string ip, Asn asn) {
  Hop h;
  h.reported_ips.push_back(std::move(ip));
  h.asn = asn;
  return h;
}

}  // namespace

SyntheticDataset generate_mlab_dataset(const SyntheticConfig& cfg, Rng& rng) {
  SyntheticDataset ds;

  // Each server is assigned a transit chain; with probability
  // kPSharedTransit it reuses the previous server's chain, creating pairs
  // whose paths meet outside any client ISP.
  std::vector<std::size_t> server_chain(kNumServers);
  for (std::size_t s = 0; s < kNumServers; ++s) {
    if (s > 0 && rng.bernoulli(kPSharedTransit)) {
      server_chain[s] = server_chain[s - 1];
    } else {
      server_chain[s] = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kNumTransitChains) - 1));
    }
  }

  for (std::size_t c = 0; c < cfg.num_clients; ++c) {
    const std::size_t isp = c % kNumIsps;
    const Asn isp_asn = kIspAsnBase + static_cast<Asn>(isp);

    ClientTruth truth;
    truth.ip = client_ip(isp, c);
    truth.isp_asn = isp_asn;

    if (!rng.bernoulli(cfg.p_client_has_traceroutes)) {
      ds.truth.push_back(truth);
      continue;
    }

    const auto n_servers = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(kMinServersPerClient),
        static_cast<std::int64_t>(kMaxServersPerClient)));
    std::vector<std::size_t> servers(kNumServers);
    for (std::size_t s = 0; s < kNumServers; ++s) servers[s] = s;
    std::shuffle(servers.begin(), servers.end(), rng);
    servers.resize(std::min(n_servers, servers.size()));

    // Whether this ISP blocks ICMP near this client (applies to all of the
    // client's traceroutes, as in reality it is an ISP-side policy).
    const bool icmp_blocked = rng.bernoulli(kPIcmpBlocked);

    struct Generated {
      std::size_t server;
      bool passes_filter;
    };
    std::vector<Generated> generated;

    for (std::size_t s : servers) {
      TracerouteRecord rec;
      rec.server = "mlab" + std::to_string(s);
      rec.dst_ip = truth.ip;
      rec.dst_asn = isp_asn;

      const Asn server_asn = kServerAsnBase + static_cast<Asn>(s);
      rec.hops.push_back(make_hop(
          "10." + std::to_string(s) + ".0.254", server_asn));

      // Transit chain: 2 hops named by the chain, so two servers on the
      // same chain share these router IPs.
      const std::size_t chain = server_chain[s];
      const Asn transit_asn = kTransitAsnBase + static_cast<Asn>(chain);
      for (int h = 1; h <= 2; ++h) {
        rec.hops.push_back(make_hop(
            "172.16." + std::to_string(chain) + "." + std::to_string(h),
            transit_asn));
      }

      // Client ISP: per-server border router, then the client-specific
      // aggregation router shared by all servers, then the client.
      rec.hops.push_back(make_hop("100." + std::to_string(isp) + ".254." +
                                      std::to_string(s % 4),
                                  isp_asn));
      rec.hops.push_back(make_hop("100." + std::to_string(isp) + "." +
                                      std::to_string((c / 10) % 250) + ".1",
                                  isp_asn));
      rec.hops.push_back(make_hop(truth.ip, isp_asn));

      if (icmp_blocked) {
        // Hops inside the ISP do not respond; the record ends at transit.
        for (auto& hop : rec.hops) {
          if (hop.asn == isp_asn) hop.responded = false;
        }
      }
      // Independent per-hop aliasing.
      for (auto& hop : rec.hops) {
        if (hop.asn != isp_asn && rng.bernoulli(kPHopAlias)) {
          hop.reported_ips.push_back(hop.reported_ips.front() + "9");
        }
      }

      const bool passes =
          rec.last_hop_matches_dst_asn() && rec.alias_consistent();
      truth.has_any_record = true;
      truth.has_complete_record = truth.has_complete_record || passes;
      generated.push_back({s, passes});
      ds.records.push_back(std::move(rec));
    }

    // Ground truth for "suitable topology exists": two filtered records
    // from servers on *different* transit chains (same chain => common
    // transit node => unsuitable).
    for (std::size_t i = 0; i < generated.size() && !truth.has_suitable_topology; ++i) {
      for (std::size_t j = i + 1; j < generated.size(); ++j) {
        if (!generated[i].passes_filter || !generated[j].passes_filter) continue;
        if (server_chain[generated[i].server] !=
            server_chain[generated[j].server]) {
          truth.has_suitable_topology = true;
          break;
        }
      }
    }
    ds.truth.push_back(truth);
  }
  return ds;
}

}  // namespace wehey::topology
