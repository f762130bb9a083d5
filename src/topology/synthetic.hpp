// Synthetic stand-in for M-Lab's traceroute BigQuery tables (§3.3).
//
// Generates annotated traceroute records with controlled imperfections —
// ICMP-blocking ISPs (incomplete traceroutes), IP aliasing, and server
// pairs that share transit infrastructure (and therefore converge *before*
// the client's ISP) — together with the ground truth of which pairs are
// genuinely suitable. Tests validate the TC pipeline against this ground
// truth, and the §3.3-coverage bench reproduces the paper's 52 % / 74 %
// style statistics.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "topology/traceroute.hpp"

namespace wehey::topology {

/// The dataset's size and how many clients M-Lab measured. The server,
/// ISP and transit counts and the imperfection rates are constants in
/// synthetic.cpp, calibrated to §3.3's coverage statistics.
struct SyntheticConfig {
  std::size_t num_clients = 200;
  double p_client_has_traceroutes = 0.75;  ///< else: no records at all
};

struct ClientTruth {
  std::string ip;
  Asn isp_asn = 0;
  bool has_any_record = false;
  bool has_complete_record = false;  ///< >= 1 record passing both filters
  bool has_suitable_topology = false;
};

struct SyntheticDataset {
  std::vector<TracerouteRecord> records;
  std::vector<ClientTruth> truth;
};

SyntheticDataset generate_mlab_dataset(const SyntheticConfig& cfg, Rng& rng);

}  // namespace wehey::topology
