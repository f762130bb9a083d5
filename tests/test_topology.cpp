#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "digest.hpp"
#include "topology/construction.hpp"
#include "topology/database.hpp"
#include "topology/synthetic.hpp"
#include "topology/traceroute.hpp"

namespace wehey::topology {
namespace {

Hop hop(std::string ip, Asn asn, bool responded = true) {
  Hop h;
  h.reported_ips.push_back(std::move(ip));
  h.asn = asn;
  h.responded = responded;
  return h;
}

/// server --(transit)--> border --> agg --> client, all annotated.
TracerouteRecord record(const std::string& server,
                        const std::string& transit,
                        const std::string& border, const std::string& agg,
                        const std::string& client, Asn client_asn) {
  TracerouteRecord r;
  r.server = server;
  r.dst_ip = client;
  r.dst_asn = client_asn;
  // First hop is inside the server's own network: unique per server.
  r.hops.push_back(hop("10.0.0." + server, 65001));
  r.hops.push_back(hop(transit, 65100));
  r.hops.push_back(hop(border, client_asn));
  r.hops.push_back(hop(agg, client_asn));
  r.hops.push_back(hop(client, client_asn));
  return r;
}

TEST(Traceroute, Prefix24) {
  EXPECT_EQ(ipv4_prefix24("100.1.2.77"), "100.1.2.0/24");
}

TEST(Traceroute, Prefix48) {
  EXPECT_EQ(ipv6_prefix48("2001:db8:1:2:3:4:5:6"), "2001:db8:1::/48");
  // "::" compression in every position.
  EXPECT_EQ(ipv6_prefix48("2001:db8::7"), "2001:db8:0::/48");
  EXPECT_EQ(ipv6_prefix48("2001:db8:9::"), "2001:db8:9::/48");
  EXPECT_EQ(ipv6_prefix48("::1"), "0:0:0::/48");
}

TEST(Traceroute, ClientPrefixPicksFamily) {
  EXPECT_EQ(client_prefix("100.1.2.77"), "100.1.2.0/24");
  EXPECT_EQ(client_prefix("2001:db8:1::77"), "2001:db8:1::/48");
}

TEST(Database, Ipv6ClientsKeyedBySlash48) {
  TopologyDatabase db;
  TopologyEntry e;
  e.dst_prefix = "2001:db8:1::/48";
  e.dst_asn = 64501;
  e.pairs.push_back({"mlab1", "mlab2", "2001:db8:1::1"});
  db.ingest({e});
  // Any address inside the /48 resolves to the entry.
  EXPECT_TRUE(db.pick("2001:db8:1:55::abcd").has_value());
  EXPECT_FALSE(db.pick("2001:db8:2::1").has_value());
}

TEST(Traceroute, ConditionA_LastHopAsn) {
  auto r = record("s1", "172.16.0.1", "100.0.254.1", "100.0.1.1",
                  "100.0.1.77", 64500);
  EXPECT_TRUE(r.last_hop_matches_dst_asn());
  // ISP blocks ICMP: all ISP hops unresponsive -> last responding hop is
  // transit.
  for (auto& h : r.hops) {
    if (h.asn == 64500) h.responded = false;
  }
  EXPECT_FALSE(r.last_hop_matches_dst_asn());
}

TEST(Traceroute, ConditionB_Aliasing) {
  auto r = record("s1", "172.16.0.1", "100.0.254.1", "100.0.1.1",
                  "100.0.1.77", 64500);
  EXPECT_TRUE(r.alias_consistent());
  r.hops[1].reported_ips.push_back("172.16.0.9");
  EXPECT_FALSE(r.alias_consistent());
}

TEST(SuitablePair, ConvergenceInsideIsp) {
  const auto a = record("s1", "172.16.1.1", "100.0.254.0", "100.0.1.1",
                        "100.0.1.77", 64500);
  const auto b = record("s2", "172.16.2.1", "100.0.254.1", "100.0.1.1",
                        "100.0.1.77", 64500);
  std::string convergence;
  EXPECT_TRUE(suitable_pair(a, b, 64500, &convergence));
  EXPECT_EQ(convergence, "100.0.1.1");  // the shared aggregation router
}

TEST(SuitablePair, RejectsSharedTransit) {
  // Same transit router IP outside the ISP: paths converge too early.
  const auto a = record("s1", "172.16.1.1", "100.0.254.0", "100.0.1.1",
                        "100.0.1.77", 64500);
  const auto b = record("s2", "172.16.1.1", "100.0.254.1", "100.0.1.1",
                        "100.0.1.77", 64500);
  EXPECT_FALSE(suitable_pair(a, b, 64500));
}

TEST(SuitablePair, RejectsSameServer) {
  const auto a = record("s1", "172.16.1.1", "100.0.254.0", "100.0.1.1",
                        "100.0.1.77", 64500);
  EXPECT_FALSE(suitable_pair(a, a, 64500));
}

TEST(SuitablePair, DestinationAloneIsNotConvergence) {
  // The two paths share only the destination itself: no intermediate
  // common node, hence not suitable.
  auto a = record("s1", "172.16.1.1", "100.0.254.0", "100.0.6.1",
                  "100.0.1.77", 64500);
  auto b = record("s2", "172.16.2.1", "100.0.254.1", "100.0.7.1",
                  "100.0.1.77", 64500);
  EXPECT_FALSE(suitable_pair(a, b, 64500));
}

TEST(Construction, FindsTopologyFromCleanRecords) {
  std::vector<TracerouteRecord> records;
  records.push_back(record("s1", "172.16.1.1", "100.0.254.0", "100.0.1.1",
                           "100.0.1.77", 64500));
  records.push_back(record("s2", "172.16.2.1", "100.0.254.1", "100.0.1.1",
                           "100.0.1.77", 64500));
  TopologyConstructor tc;
  const auto out = tc.construct(records);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst_prefix, "100.0.1.0/24");
  EXPECT_EQ(out[0].dst_asn, 64500u);
  ASSERT_EQ(out[0].pairs.size(), 1u);
  EXPECT_EQ(out[0].pairs[0].server1, "s1");
  EXPECT_EQ(out[0].pairs[0].server2, "s2");
}

TEST(Construction, FiltersIncompleteAndAliased) {
  std::vector<TracerouteRecord> records;
  auto incomplete = record("s1", "172.16.1.1", "100.0.254.0", "100.0.1.1",
                           "100.0.1.77", 64500);
  for (auto& h : incomplete.hops) {
    if (h.asn == 64500) h.responded = false;
  }
  auto aliased = record("s2", "172.16.2.1", "100.0.254.1", "100.0.1.1",
                        "100.0.1.77", 64500);
  aliased.hops[1].reported_ips.push_back("172.16.2.9");
  records.push_back(incomplete);
  records.push_back(aliased);
  TopologyConstructor tc;
  const auto out = tc.construct(records);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tc.stats().discarded_incomplete, 1u);
  EXPECT_EQ(tc.stats().discarded_aliased, 1u);
}

TEST(Construction, MatchesSyntheticGroundTruth) {
  Rng rng(7);
  SyntheticConfig cfg;
  cfg.num_clients = 150;
  const auto ds = generate_mlab_dataset(cfg, rng);
  TopologyConstructor tc;
  const auto out = tc.construct(ds.records);

  // Index TC output by prefix.
  std::set<std::string> found;
  for (const auto& e : out) found.insert(e.dst_prefix);

  std::size_t agree = 0, total = 0;
  for (const auto& truth : ds.truth) {
    if (!truth.has_any_record) continue;
    ++total;
    const bool tc_found = found.count(ipv4_prefix24(truth.ip)) > 0;
    if (tc_found == truth.has_suitable_topology) ++agree;
    // TC must never claim a topology the generator says cannot exist.
    if (!truth.has_suitable_topology) {
      EXPECT_FALSE(tc_found) << truth.ip;
    }
  }
  ASSERT_GT(total, 50u);
  // And it should find nearly all that do exist.
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.95);
}

TEST(Database, IngestLookupInvalidate) {
  TopologyDatabase db;
  TopologyEntry e;
  e.dst_prefix = "100.1.5.0/24";
  e.dst_asn = 64501;
  e.pairs.push_back({"mlab1", "mlab2", "100.1.5.1"});
  e.pairs.push_back({"mlab3", "mlab4", "100.1.5.1"});
  db.ingest({e});
  EXPECT_EQ(db.prefix_count(), 1u);
  EXPECT_EQ(db.pair_count(), 2u);

  const auto pairs = db.lookup("100.1.5.200");
  ASSERT_EQ(pairs.size(), 2u);
  const auto pick = db.pick("100.1.5.200");
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->server1, "mlab1");

  db.invalidate("100.1.5.200", *pick);
  EXPECT_EQ(db.pair_count(), 1u);
  db.invalidate("100.1.5.200", *db.pick("100.1.5.200"));
  EXPECT_EQ(db.prefix_count(), 0u);
  EXPECT_FALSE(db.pick("100.1.5.200").has_value());
}

TEST(Database, LookupUnknownClient) {
  TopologyDatabase db;
  EXPECT_TRUE(db.lookup("9.9.9.9").empty());
  EXPECT_FALSE(db.pick("9.9.9.9").has_value());
}

TEST(Synthetic, CoverageStatisticsInRealisticRange) {
  Rng rng(13);
  SyntheticConfig cfg;
  cfg.num_clients = 400;
  const auto ds = generate_mlab_dataset(cfg, rng);
  std::size_t with_complete = 0, with_topology = 0;
  for (const auto& t : ds.truth) {
    with_complete += t.has_complete_record;
    if (t.has_complete_record) with_topology += t.has_suitable_topology;
  }
  // §3.3 reports ~52% of clients with >=1 complete traceroute and ~74% of
  // those with a suitable topology; the generator's defaults land nearby.
  const double complete_rate =
      static_cast<double>(with_complete) / cfg.num_clients;
  const double topo_rate =
      static_cast<double>(with_topology) / static_cast<double>(with_complete);
  EXPECT_GT(complete_rate, 0.3);
  EXPECT_LT(complete_rate, 0.7);
  EXPECT_GT(topo_rate, 0.5);
  EXPECT_LT(topo_rate, 0.95);
}

// The generator is exact: one seeded dataset must hold the same records,
// hops, aliases and ground truth.
TEST(Synthetic, DatasetMatchesPinnedDigest) {
  Rng rng(37);
  SyntheticConfig cfg;
  const auto ds = generate_mlab_dataset(cfg, rng);
  ASSERT_EQ(ds.truth.size(), cfg.num_clients);

  pinned::Digest d;
  for (const auto& rec : ds.records) {
    d.add(rec.server);
    d.add(rec.dst_ip);
    d.add(static_cast<std::uint64_t>(rec.dst_asn));
    d.add(static_cast<std::uint64_t>(rec.hops.size()));
    for (const auto& hop : rec.hops) {
      d.add(static_cast<std::uint64_t>(hop.asn));
      d.add(static_cast<std::uint64_t>(hop.responded));
      d.add(static_cast<std::uint64_t>(hop.reported_ips.size()));
      for (const auto& ip : hop.reported_ips) d.add(ip);
    }
  }
  for (const auto& t : ds.truth) {
    d.add(t.ip);
    d.add(static_cast<std::uint64_t>(t.isp_asn));
    d.add(static_cast<std::uint64_t>(t.has_any_record));
    d.add(static_cast<std::uint64_t>(t.has_complete_record));
    d.add(static_cast<std::uint64_t>(t.has_suitable_topology));
  }
  EXPECT_EQ(d.h, 0x4024af93b4200f27ULL)
      << "actual digest 0x" << std::hex << d.h;
}

}  // namespace
}  // namespace wehey::topology
