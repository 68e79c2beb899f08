// cluster_sim_demo: explore exascale-ish what-if questions with the
// discrete-event cluster simulator -- how do failure rates, checkpoint
// intervals, and pre-copy interact at scales no laptop can run live?
//
// Scenario: a 1200 s (compute) job on the paper's 8-node cluster (one
// rack, pairwise buddies, 5 GB/s of uplink per node) with 4.7 GB of
// checkpoint state per node, sweeping the job's MTBF while comparing
// multilevel checkpointing with and without pre-copy, plus the
// model-predicted optimal interval.
#include <cstdio>

#include "common/table.hpp"
#include "common/units.hpp"
#include "model/model.hpp"
#include "sim/cluster_scale.hpp"
#include "telemetry/telemetry.hpp"

int main() {
  using namespace nvmcp;
  using namespace nvmcp::sim;
  telemetry::init_from_env();

  constexpr int kNodes = 8;
  TableWriter table(
      "Cluster what-if: efficiency vs job failure rate (simulated, 8 nodes)",
      {"MTBF soft", "MTBF hard", "policy", "efficiency", "soft/hard fails",
       "lost work", "peak link ckpt"});

  for (const double mtbf : {1200.0, 400.0, 150.0}) {
    for (const bool precopy : {false, true}) {
      ScaleConfig cfg;
      cfg.topo.nodes = kNodes;
      cfg.topo.nodes_per_rack = kNodes;
      cfg.strategy = RemoteStrategy::kReplication;
      cfg.ring_rack_stride = 0;
      cfg.compute_per_iter = 4.0;
      cfg.compute_jitter = 0.0;
      cfg.comm_bytes_per_iter = 1.0e9;
      cfg.total_compute = 1200.0;
      cfg.ckpt_bytes = 4.7e9;
      cfg.local_interval = 40.0;
      cfg.remote_interval = 120.0;
      cfg.remote_enabled = true;
      cfg.precopy = precopy;
      cfg.nvm_bw = 2.0e9;
      cfg.rack_uplink_bw = kNodes * 5.0e9;
      // Job-level MTBFs; each node fails kNodes times less often.
      cfg.node_soft_mtbf = kNodes * mtbf;
      cfg.node_hard_mtbf = kNodes * mtbf * 4;  // ~80% of failures are soft
      cfg.seed = 7;
      const ScaleResult r = run_scale_cluster(cfg);
      table.row({TableWriter::num(mtbf, 0) + " s",
                 TableWriter::num(mtbf * 4, 0) + " s",
                 precopy ? "precopy" : "no-precopy",
                 TableWriter::num(r.efficiency, 4),
                 std::to_string(r.soft_failures) + "/" +
                     std::to_string(r.hard_failures),
                 format_seconds(r.lost_work / kNodes),
                 format_bandwidth(r.peak_link_ckpt_rate)});
    }
  }
  table.print();

  // What interval should such a system use? Ask the Section III model.
  std::printf("\nmodel-suggested local checkpoint intervals:\n");
  for (const double mtbf : {1200.0, 400.0, 150.0}) {
    model::SystemParams p;
    p.t_compute = 1200;
    p.ckpt_data = 4.7e9 / 12;  // per core
    p.nvm_bw_core = 2.0e9 / 12;
    p.mtbf_local = mtbf;
    p.mtbf_remote = mtbf * 4;
    p.precopy = true;
    const double opt = model::optimal_local_interval(p);
    std::printf("  MTBF_soft=%5.0fs -> optimal I=%5.1fs\n", mtbf, opt);
  }
  return 0;
}
