// Fig 9: GTC application efficiency with remote checkpointing -- pre-copy
// vs no pre-copy across NVM bandwidth and remote-checkpoint interval, with
// failures injected from the paper's assumed rates.
//
// Paper: "even at reduced levels of NVM bandwidth, remote pre-copy
// checkpointing delivers significant improvements in achieving application
// efficiency ... with the increase in available NVM bandwidth, and at
// increased checkpointing intervals, NVM-checkpoint can achieve
// application efficiency by 0.98. ... on average 'pre-copy' based remote
// checkpointing adds 6.2% to the application run time, compared to 10.6%
// of the 'no pre-copy' approach, representing a reduction of nearly 40%."
//
// Parameters: the paper's 8 nodes in one rack with pairwise buddies, 5 GB/s
// of uplink per node, 4.7 GB checkpoint per node, local interval 40 s,
// remote interval swept 47..180 s, failure split between transient (local
// NVM recovery) and permanent (buddy-node recovery) failures. Runs on the
// discrete-event cluster simulator, averaged over 20 seeds (the seeds of
// the SimCluster Fig 9 tolerance test).
// A second table extends the figure past the paper's single-rack setup:
// the same pre-copy machinery on more nodes, showing how remote placement
// (pairwise replication vs RS parity vs hybrid) holds up as node count
// grows. The full 10k-node sweep lives in bench_sim_scale; this section is
// the quick cross-reference.
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "sim/cluster_scale.hpp"

namespace {

void run_scale_companion() {
  using namespace nvmcp;
  using namespace nvmcp::sim;

  TableWriter table(
      "Fig 9 at scale: efficiency by remote placement as the cluster "
      "grows (same app shape; correlated rack/switch outages from fixed "
      "per-entity rates)",
      {"nodes", "strategy", "efficiency", "unrecov", "lost node-s"},
      "fig9_scale_companion.csv");

  const std::vector<int> sizes = {64, 512, 2048};
  const std::vector<std::uint64_t> seeds = {11, 22, 33};
  for (const int nodes : sizes) {
    for (RemoteStrategy strategy :
         {RemoteStrategy::kReplication, RemoteStrategy::kRSParity,
          RemoteStrategy::kHybrid}) {
      OnlineStats eff, lost;
      int unrecov = 0;
      for (const std::uint64_t seed : seeds) {
        ScaleConfig cfg;
        cfg.topo.nodes = nodes;
        cfg.topo.nodes_per_rack = 16;
        cfg.topo.racks_per_switch = 8;
        cfg.strategy = strategy;
        // Paper's in-rack pairwise buddy for the replication column.
        if (strategy == RemoteStrategy::kReplication) cfg.ring_rack_stride = 0;
        cfg.compute_per_iter = 4.0;
        cfg.compute_jitter = 0.01;
        cfg.comm_bytes_per_iter = 0.8e9;
        cfg.total_compute = 240.0;
        cfg.ckpt_bytes = 4.7e9;
        cfg.local_interval = 40.0;
        cfg.remote_interval = 120.0;
        cfg.node_soft_mtbf = 2.0e6;
        cfg.node_hard_mtbf = 1.0e7;
        cfg.rack_mtbf = 3.0e5;
        cfg.switch_mtbf = 2.0e5;
        cfg.seed = seed;
        const ScaleResult r = run_scale_cluster(cfg);
        eff.add(r.efficiency);
        lost.add(r.lost_work);
        unrecov += r.unrecoverable;
      }
      table.row({TableWriter::num(nodes, 0), to_string(strategy),
                 TableWriter::num(eff.mean(), 4), TableWriter::num(unrecov, 0),
                 TableWriter::num(lost.mean(), 0)});
    }
  }
  table.print();
}

}  // namespace

int main() {
  using namespace nvmcp;
  using namespace nvmcp::sim;

  TableWriter table(
      "Fig 9: application efficiency with remote checkpoint (paper: "
      "pre-copy reaches ~0.98 at high BW/interval; avg overhead 6.2% vs "
      "10.6% -> ~40% lower)",
      {"NVM BW", "remote interval", "no-precopy eff", "precopy eff",
       "no-precopy ovh", "precopy ovh"},
      "fig9_efficiency.csv");

  OnlineStats overhead_nopc, overhead_pc;
  const std::vector<double> bandwidths = {1.0e9, 2.0e9, 4.0e9};
  const std::vector<double> remote_intervals = {47, 90, 120, 180};
  constexpr int kNodes = 8;
  constexpr std::uint64_t kSeeds = 20;

  for (const double bw : bandwidths) {
    for (const double ri : remote_intervals) {
      double eff[2] = {0, 0};
      for (const int precopy : {0, 1}) {
        OnlineStats acc;
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
          ScaleConfig cfg;
          cfg.topo.nodes = kNodes;
          cfg.topo.nodes_per_rack = kNodes;
          cfg.strategy = RemoteStrategy::kReplication;
          cfg.ring_rack_stride = 0;  // the paper's pairwise buddies
          cfg.compute_per_iter = 4.0;
          cfg.compute_jitter = 0.0;
          cfg.comm_bytes_per_iter = 0.8e9;
          cfg.total_compute = 1200.0;
          cfg.ckpt_bytes = 4.7e9;  // ~433 MB/core, 4.7 GB/node (paper)
          cfg.local_interval = 40.0;
          cfg.remote_interval = ri;
          cfg.remote_enabled = true;
          cfg.precopy = precopy != 0;
          cfg.nvm_bw = bw;
          cfg.rack_uplink_bw = kNodes * 5.0e9;
          // Failure split per X. Dong et al.: mostly transient. The job
          // fails every 400 s soft / 2400 s hard; rates are per node.
          cfg.node_soft_mtbf = kNodes * 400.0;
          cfg.node_hard_mtbf = kNodes * 2400.0;
          cfg.seed = seed;
          acc.add(run_scale_cluster(cfg).efficiency);
        }
        eff[precopy] = acc.mean();
      }
      overhead_nopc.add(1.0 / eff[0] - 1.0);
      overhead_pc.add(1.0 / eff[1] - 1.0);
      table.row({format_bandwidth(bw), TableWriter::num(ri, 0) + " s",
                 TableWriter::num(eff[0], 4), TableWriter::num(eff[1], 4),
                 TableWriter::pct(1.0 / eff[0] - 1.0),
                 TableWriter::pct(1.0 / eff[1] - 1.0)});
    }
  }
  table.print();

  const double nopc = overhead_nopc.mean();
  const double pc = overhead_pc.mean();
  std::printf("\nAverage runtime overhead over %d seeds: no-precopy %.1f%%, "
              "precopy %.1f%% -> reduction %.0f%% (paper: 10.6%% vs 6.2%%, "
              "~40%% reduction)\n",
              static_cast<int>(kSeeds), nopc * 100, pc * 100,
              (1.0 - pc / nopc) * 100);

  std::printf("\n");
  run_scale_companion();
  return 0;
}
