// Multi-node cluster checkpoint simulation: the Fig-9 model pushed from
// the paper's 8-node shape to O(10^4) nodes / O(10^6) events.
//
// Models one synchronized SPMD job across a rack/switch topology:
//
//  * every iteration, all nodes compute (with per-node OS-noise jitter,
//    so stragglers grow ~ln N with scale), exchange messages over their
//    rack uplink (processor sharing couples application communication
//    with checkpoint traffic -- the paper's "communication noise"), and
//    barrier;
//  * local checkpoints block on each node's own NVM at `local_interval`
//    (pre-copy shrinks the blocking step to the residual dirty fraction;
//    the background stream is accounted as inflated NVM bytes);
//  * remote cuts ship redundancy over the rack uplinks at
//    `remote_interval`, with per-local-interval pre-copy slices, under
//    one of three placement strategies:
//      kReplication  full copy to a ring buddy `ring_rack_stride` racks
//                    away (stride 0 = the paper's in-rack pairwise).
//      kRSParity     m/k parity share per node, groups spread across
//                    racks; survives <= m concurrent losses per group,
//                    but a rebuild reads k shares per failed node.
//      kHybrid       RS parity every cut plus a full ring replica every
//                    `hybrid_replica_every`-th cut (cross-switch stride),
//                    trading extra bandwidth for switch-outage coverage.
//  * failures come from a seeded correlated scenario (node soft/hard,
//    rack outage, switch outage). Any failure stalls the whole job; hard
//    losses roll everyone back to the newest remote cut whose redundancy
//    survived, and an unrecoverable loss restarts the job from zero --
//    at 10k nodes that cliff is the frontier the sweep maps.
#pragma once

#include <cstdint>

#include "sim/failure_scenario.hpp"
#include "sim/topology.hpp"

namespace nvmcp::sim {

enum class RemoteStrategy { kReplication, kRSParity, kHybrid };

const char* to_string(RemoteStrategy s);

struct ScaleConfig {
  TopologyConfig topo;

  // Remote redundancy placement.
  RemoteStrategy strategy = RemoteStrategy::kReplication;
  int ring_rack_stride = 1;      // 0 = in-rack pairwise buddy
  int rs_k = 8;
  int rs_m = 2;
  int hybrid_replica_every = 3;  // ring replica every k-th remote cut

  // Application shape (per node).
  double compute_per_iter = 4.0;
  double compute_jitter = 0.01;  // relative OS-noise tail per node
  double comm_bytes_per_iter = 0.8e9;
  double total_compute = 120.0;
  double ckpt_bytes = 4.7e9;

  // Checkpoint cadence.
  double local_interval = 40.0;
  double remote_interval = 120.0;
  bool remote_enabled = true;
  bool precopy = true;
  double precopy_residual = 0.15;
  double precopy_inflation = 1.03;

  // Resources.
  double nvm_bw = 2.0e9;        // per-node NVM write bandwidth
  double rack_uplink_bw = 40.0e9;  // shared by each rack's nodes
  double restart_local_factor = 1.0;
  double restart_remote_factor = 1.0;

  // Correlated failure rates (0 disables a class).
  double node_soft_mtbf = 0;
  double node_hard_mtbf = 0;
  double rack_mtbf = 0;
  double switch_mtbf = 0;
  // Outages are pre-generated to this horizon; 0 = auto (20x the ideal
  // runtime, far past any plausible finish).
  double scenario_horizon = 0;

  std::uint64_t seed = 42;
  double max_wall = 1.0e7;
  bool reference_engine = false;  // legacy heap engine (equivalence tests)
  // Deterministic outage injection at exact sim times (test hook); merged
  // into the generated scenario.
  std::vector<Outage> forced_outages;
};

struct ScaleResult {
  double wall = 0;
  double ideal = 0;        // no-failure, no-checkpoint, no-jitter runtime
  double efficiency = 0;   // ideal / wall
  int iterations = 0;

  int local_checkpoints = 0;  // coordinated local rounds
  int remote_cuts = 0;        // committed remote coordination rounds

  int soft_failures = 0;
  int hard_failures = 0;
  int rack_outages = 0;
  int switch_outages = 0;

  int recoveries_local = 0;   // restarted from local NVM
  int recoveries_buddy = 0;   // rebuilt from ring replicas
  int recoveries_parity = 0;  // rebuilt from RS parity
  int unrecoverable = 0;      // job restarted from t = 0

  double lost_work = 0;        // recomputed node-seconds
  double restart_seconds = 0;  // job stall time in restarts
  double nvm_bytes = 0;        // cluster-total NVM writes
  double remote_bytes = 0;     // cluster-total uplink checkpoint bytes
  double app_comm_seconds = 0; // job-level time in communication phases
  double local_blocking = 0;   // job-level time in completed local checkpoints
  // Peak checkpoint rate on rack 0's uplink (bytes/s over 1 s buckets).
  // Every rack carries the same per-node schedule and no rack holds more
  // nodes than rack 0, so its timeline is the busiest one.
  double peak_link_ckpt_rate = 0;

  std::uint64_t events_fired = 0;
  bool queue_drained = false;
};

/// Run one configuration to completion; deterministic for a given seed.
ScaleResult run_scale_cluster(const ScaleConfig& cfg);

}  // namespace nvmcp::sim
