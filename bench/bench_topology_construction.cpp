// §3.3 topology-construction statistics: on a month's worth of (synthetic)
// M-Lab traceroutes, what fraction of clients have at least one complete
// traceroute, and what fraction of those have at least one suitable
// topology?
//
// Paper shape: ~52% of WeHe clients with >= 1 complete traceroute; a
// suitable topology for ~74% of those (a lower bound).
#include <cstdio>
#include <set>

#include "bench_util.hpp"
#include "topology/alias.hpp"
#include "topology/construction.hpp"
#include "topology/database.hpp"
#include "topology/synthetic.hpp"

using namespace wehey;
using namespace wehey::topology;

int main() {
  bench::print_header("§3.3", "topology-construction coverage");
  obs::ObservedSweep obs_run("bench_topology_construction");
  const auto scale = experiments::run_scale();

  Rng rng(2023);
  SyntheticConfig cfg;
  cfg.num_clients = scale.full ? 5000 : 1000;
  const auto ds = generate_mlab_dataset(cfg, rng);

  TopologyConstructor tc;
  const auto entries = tc.construct(ds.records);
  TopologyDatabase db;
  db.ingest(entries);

  std::set<std::string> with_topology;
  for (const auto& e : entries) with_topology.insert(e.dst_prefix);

  std::size_t clients = ds.truth.size();
  std::size_t complete = 0, suitable = 0, truth_suitable = 0;
  for (const auto& t : ds.truth) {
    if (t.has_complete_record) {
      ++complete;
      if (with_topology.count(ipv4_prefix24(t.ip))) ++suitable;
      if (t.has_suitable_topology) ++truth_suitable;
    }
  }

  std::printf("clients: %zu; traceroute records: %zu "
              "(discarded: %zu incomplete, %zu aliased)\n",
              clients, tc.stats().input_records,
              tc.stats().discarded_incomplete, tc.stats().discarded_aliased);
  std::printf(">= 1 complete traceroute: %zu (%.1f%% of clients)\n",
              complete, 100.0 * complete / clients);
  std::printf(">= 1 suitable topology (TC): %zu (%.1f%% of those)\n",
              suitable, complete ? 100.0 * suitable / complete : 0.0);
  std::printf(">= 1 suitable topology (ground truth): %zu (%.1f%%)\n",
              truth_suitable,
              complete ? 100.0 * truth_suitable / complete : 0.0);
  std::printf("topology DB: %zu prefixes, %zu server pairs\n",
              db.prefix_count(), db.pair_count());

  // The §3.3 improvement the paper leaves unimplemented: IP alias
  // resolution rescues records condition (b) discards.
  AliasResolver resolver;
  resolver.learn(ds.records);
  TopologyConstructor tc_resolved;
  const auto resolved_entries =
      tc_resolved.construct(resolver.resolve(ds.records));
  std::printf("\nwith alias resolution (%zu alias sets merged): "
              "%zu -> %zu discarded records, %zu -> %zu destinations with "
              "a topology\n",
              resolver.alias_set_count(), tc.stats().discarded_aliased,
              tc_resolved.stats().discarded_aliased,
              tc.stats().destinations_with_topology,
              tc_resolved.stats().destinations_with_topology);

  std::printf("\npaper: >= 1 complete traceroute for 52%% of clients; a "
              "suitable topology for 74%% of those (alias resolution left "
              "as an improvement)\n");
  obs_run.report().verdict = "completed";
  return 0;
}
